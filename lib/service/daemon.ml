module Detector = Adprom.Detector
module Profile = Adprom.Profile
module Scoring = Adprom.Scoring
module Otrace = Adprom_obs.Trace
module Olog = Adprom_obs.Log
module Oring = Adprom_obs.Ring

type gate_mode = Gate_off | Gate_explain | Gate_enforce

type qsig_mode = Qsig_off | Qsig_warn | Qsig_enforce

(* Warn checks under the Flexible policy, Enforce under Strict. Strict
   constraints are tighter, so Enforce's anomaly set is a superset of
   Warn's on the same stream (the fused-verdict monotonicity the tests
   pin down). *)
let qsig_policy_of_mode = function
  | Qsig_off | Qsig_warn -> Adprom_qsig.Constraints.Flexible
  | Qsig_enforce -> Adprom_qsig.Constraints.Strict

module Oclock = Adprom_obs.Clock

(* End-to-end latency spans queueing, so it needs headroom past the
   1s scoring-latency ceiling; both nodes registering the same layout
   is what lets the router merge fleet histograms bucket-wise. *)
let e2e_buckets =
  Array.append Metrics.default_buckets [| 2.5; 5.0; 10.0 |]

let now_ns () = Int64.to_int (Oclock.monotonic_ns ())
let ns_to_s ns = float_of_int ns /. 1e9

(* --- shard queues ---------------------------------------------------------- *)

(* A shard queue is a chain of chunks, each slot holding one message:
   an event, a query, or a shed of the event's session. Items are
   stamped with the monotonic clock at admission so workers can report
   queue wait and ingest->verdict (end-to-end) latency; the stamp is an
   immediate int (63 bits of ns outlast any uptime), and a shed carries
   [shed_stamp] instead. A slot not in use holds [no_event] and
   [no_query], so a message is a query exactly when its query is not
   [no_query]. Admission writes into slots and workers clear them, and
   spent chunks are recycled, so a queued item allocates nothing. *)

(* Each chunk array is 127 words plus its header: the largest block the
   OCaml 5 major heap serves from its size-class pools. *)
let chunk_slots = 127

(* Spent chunks a shard keeps for reuse; any more are left to the GC. *)
let max_spares = 4

let shed_stamp = -1

let no_event =
  {
    Transport.session = -1;
    event = { Runtime.Collector.symbol = Analysis.Symbol.Entry; caller = ""; block = -1 };
  }

let no_query = { Transport.q_session = -1; rows = 0; sql = "" }

type chunk = {
  events : Transport.event array;
  queries : Transport.query array;
  stamps : int array;  (* admission monotonic ns, or [shed_stamp] *)
  mutable next : chunk;  (* toward the tail; [last_chunk] ends a chain *)
}

let rec last_chunk = { events = [||]; queries = [||]; stamps = [||]; next = last_chunk }

let new_chunk () =
  {
    events = Array.make chunk_slots no_event;
    queries = Array.make chunk_slots no_query;
    stamps = Array.make chunk_slots 0;
    next = last_chunk;
  }

(* Every field but [depth] is guarded by [mutex]. The acceptor writes
   slot [tail_pos] of [tail]; [queued] messages wait from slot
   [head_pos] of [head] on. A worker reserves them all at once, then
   reads and clears them without the lock: the acceptor only writes
   past the reservation, and a chunk changes hands (spent, onto
   [spares]; reused, off it) only under the lock. *)
type shard = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable head : chunk;
  mutable head_pos : int;
  mutable tail : chunk;
  mutable tail_pos : int;
  mutable queued : int;
  mutable spares : chunk;  (* a chain through [next] *)
  mutable spare_count : int;
  mutable closed : bool;
  depth : Metrics.gauge;
}

(* Take the next slot, [tail_pos - 1] of [tail]; call under the lock. *)
let claim shard =
  if shard.tail_pos = chunk_slots then begin
    let c =
      if shard.spare_count > 0 then begin
        let c = shard.spares in
        shard.spares <- c.next;
        shard.spare_count <- shard.spare_count - 1;
        c.next <- last_chunk;
        c
      end
      else new_chunk ()
    in
    shard.tail.next <- c;
    shard.tail <- c;
    shard.tail_pos <- 0
  end;
  shard.tail_pos <- shard.tail_pos + 1;
  shard.queued <- shard.queued + 1

(* Queue one message; call under the lock. *)
let push_event shard ev stamp =
  claim shard;
  shard.tail.events.(shard.tail_pos - 1) <- ev;
  shard.tail.stamps.(shard.tail_pos - 1) <- stamp

let push_query shard q stamp =
  claim shard;
  shard.tail.queries.(shard.tail_pos - 1) <- q;
  shard.tail.stamps.(shard.tail_pos - 1) <- stamp

(* A worker has read and cleared every slot of [c]: hand it back. *)
let release shard c =
  Mutex.lock shard.mutex;
  if shard.spare_count < max_spares then begin
    c.next <- shard.spares;
    shard.spares <- c;
    shard.spare_count <- shard.spare_count + 1
  end;
  Mutex.unlock shard.mutex

type session_report = {
  session : int;
  events : int;
  windows : int;
  worst : Detector.flag;
  verdicts : Detector.verdict list;
  qsig_checks : int;
  qsig_anomalies : int;
}

type shard_result = {
  reports : session_report list;
  discarded : (int * int) list;  (* shed sessions: accepted events thrown away *)
}

type summary = {
  sessions : session_report list;
  shed : (int * int * int) list;
      (* session, events dropped at the door, accepted events discarded *)
  events_offered : int;
  events_ingested : int;
  events_dropped : int;
}

type admission = Accepted | Rejected of { newly_shed : bool }

type t = {
  profile : Profile.t;
  capacity : int;
  keep_verdicts : bool;
  qsig_active : bool;
  shards : shard array;
  workers : shard_result Domain.t array;
  metrics : Metrics.t;
  alerts : Alerts.t;
  rings : Olog.event Oring.t array;  (* recent events, one ring per shard *)
  span_hook : Otrace.hook;
  (* ingestion front-end state: one acceptor thread *)
  shed_at_door : (int, int ref) Hashtbl.t;  (* session -> events dropped *)
  mutable offered : int;
  mutable ingested : int;
  mutable dropped : int;
  mutable draining : bool;
  c_offered : Metrics.counter;
  c_ingested : Metrics.counter;
  c_dropped : Metrics.counter;
  c_shed_sessions : Metrics.counter;
}

(* The help texts of the daemon's metric families, in one table: the
   registrations below read it, and so does the fleet dump
   ([Cluster.Router.metrics]), whose merged snapshots carry none. *)
let metric_help_texts =
  [
    ("adprom_score_latency_seconds", "Per-event scorer push latency");
    ("adprom_queue_wait_seconds", "Time items spend queued between admission and dequeue");
    ("adprom_e2e_latency_seconds", "Ingest-to-verdict latency of verdict-completing events");
  ]

let metric_help name = List.assoc_opt name metric_help_texts

(* The series the workers report into, registered once by [create] —
   so the dump shows them before the first event arrives — and shared
   by every worker. *)
type series = {
  windows : Metrics.counter;
  flags : Metrics.counter array;  (* indexed by [Detector.severity] *)
  cache_hits : Metrics.counter;
  cache_misses : Metrics.counter;
  scorer_errors : Metrics.counter;
  gate_checks : Metrics.counter;
  gate_rejections : Metrics.counter;
  qsig_checks : Metrics.counter;
  qsig_anomalies : Metrics.counter;
  qgate_checks : Metrics.counter;
  qgate_rejections : Metrics.counter;
  leak_capable : Metrics.counter;
  latency : Metrics.histogram;
  queue_wait : Metrics.histogram;
  e2e : Metrics.histogram;
}

let register_series metrics =
  let c = Metrics.counter metrics in
  let h ?buckets name = Metrics.histogram ?buckets ?help:(metric_help name) metrics name in
  {
    windows = c "adprom_windows_scored_total";
    flags =
      Array.map c
        [|
          "adprom_verdicts_normal_total";
          "adprom_verdicts_anomalous_total";
          "adprom_verdicts_out_of_context_total";
          "adprom_verdicts_data_leak_total";
        |];
    cache_hits = c "adprom_score_cache_hits_total";
    cache_misses = c "adprom_score_cache_misses_total";
    scorer_errors = c "adprom_scorer_errors_total";
    gate_checks = c "adprom_dfa_gate_checks_total";
    gate_rejections = c "adprom_dfa_gate_rejections_total";
    qsig_checks = c "adprom_qsig_checks_total";
    qsig_anomalies = c "adprom_qsig_anomalies_total";
    qgate_checks = c "adprom_qsig_gate_checks_total";
    qgate_rejections = c "adprom_qsig_gate_rejections_total";
    leak_capable = c "adprom_leak_capable_incidents_total";
    latency = h "adprom_score_latency_seconds";
    queue_wait = h "adprom_queue_wait_seconds";
    e2e = h ~buckets:e2e_buckets "adprom_e2e_latency_seconds";
  }

let shard_of t session = Hashtbl.hash session mod Array.length t.shards

(* The static stage: everything the program's analysis tells the
   monitor, built once by [build_stage] before any domain spawns and
   installed into every worker's engines by [install]. *)
type stage = {
  pairs : (string * Analysis.Symbol.t) list option;
      (* statically possible (caller, call) pairs, named by explanations *)
  dfa : (Analysis.Seqauto.t * gate_mode) option;  (* call-sequence gate *)
  qsig : (Adprom_qsig.Profile.t * Adprom_qsig.Constraints.policy) option;
      (* the query axis, on a snapshot of the trained profile so later
         mutation by the caller cannot race the checkers *)
  signatures : (string list * bool * gate_mode) option;
      (* query-signature gate: emittable set, its complete bit, mode *)
  sinks : (int * string) list;  (* sink block -> leak capability *)
}

(* Under [Enforce] a failing profile raises here, before any worker
   exists; under [Warn] findings are logged and counted. *)
let vet_profile ~metrics ~policy ?automaton ~facts profile analysis =
  let module Diag = Analysis.Diag in
  let diags = Adprom.Profile_check.apply policy ?automaton ~facts profile analysis in
  let errors = List.length (Diag.errors diags) in
  let warnings = List.length (Diag.warnings diags) in
  let c_err = Metrics.counter metrics "adprom_profile_vet_errors_total" in
  let c_warn = Metrics.counter metrics "adprom_profile_vet_warnings_total" in
  if errors > 0 then Metrics.incr ~by:errors c_err;
  if warnings > 0 then Metrics.incr ~by:warnings c_warn;
  List.iter
    (fun d ->
      let level =
        match d.Diag.severity with
        | Diag.Error -> Olog.Warn
        | Diag.Warning -> Olog.Info
        | Diag.Hint -> Olog.Debug
      in
      if Olog.enabled level then
        Olog.emit level ~scope:"daemon"
          ~fields:[ ("code", Olog.Str d.Diag.code) ]
          (Diag.to_string d))
    diags

let build_stage ~metrics ?vet_against ~vet_policy ~static_gate ~qsig_mode
    ?qsig_profile ~qsig_static_gate ?leakage_policy profile =
  let qsig =
    match (qsig_mode, qsig_profile) with
    | Qsig_off, _ | _, None -> None
    | (Qsig_warn | Qsig_enforce), Some qprofile ->
        Some (Adprom_qsig.Profile.copy qprofile, qsig_policy_of_mode qsig_mode)
  in
  match vet_against with
  | None ->
      if leakage_policy <> None then
        invalid_arg
          "Daemon.create: a leakage policy needs vet_against (the program \
           whose sinks it judges)";
      { pairs = None; dfa = None; qsig; signatures = None; sinks = [] }
  | Some analysis ->
      let armed = function Gate_off -> None | mode -> Some mode in
      let dfa =
        Option.map
          (fun mode -> (Adprom.Profile_check.automaton profile analysis, mode))
          (armed static_gate)
      in
      (* one pass over the program's facts feeds the vet and the
         explanations' static pairs *)
      let facts = Analysis.Vet.facts analysis.Analysis.Analyzer.cfgs in
      vet_profile ~metrics ~policy:vet_policy
        ?automaton:(Option.map fst dfa) ~facts profile analysis;
      (* one signature inference feeds both the query gate and the
         leakage summary *)
      let cfgs = analysis.Analysis.Analyzer.pruned_cfgs in
      let inferred = lazy (Analysis.Qstatic.infer cfgs) in
      let signatures =
        match (qsig, armed qsig_static_gate) with
        | Some _, Some mode ->
            let sq = Lazy.force inferred in
            Some (sq.Analysis.Qstatic.signatures, sq.Analysis.Qstatic.complete, mode)
        | None, _ | _, None -> None
      in
      let sinks =
        match leakage_policy with
        | None -> []
        | Some policy ->
            Analysis.Leakage.capabilities
              (Analysis.Leakage.analyze
                 ~schema:(Applang.Libspec.Sensitivity.schema policy)
                 ~static:(Lazy.force inferred) cfgs)
      in
      {
        pairs = Some facts.Analysis.Vet.pairs;
        dfa;
        qsig;
        signatures;
        sinks;
      }

(* One compiled engine per axis per worker domain, loaded with the
   stage: every session of the shard shares its interned tables and
   verdict memo. *)
let install stage profile =
  let engine = Scoring.create profile in
  Scoring.set_static_pairs engine stage.pairs;
  Option.iter
    (fun (auto, mode) ->
      Scoring.set_static_dfa engine (Some auto);
      Scoring.set_gate_enforce engine (mode = Gate_enforce))
    stage.dfa;
  let qsig_engine =
    Option.map
      (fun (qprofile, policy) ->
        let qe = Adprom_qsig.Engine.create ~policy qprofile in
        Option.iter
          (fun (sigs, complete, mode) ->
            Adprom_qsig.Engine.set_static_signatures qe ~complete sigs;
            Adprom_qsig.Engine.set_gate_enforce qe (mode = Gate_enforce))
          stage.signatures;
        qe)
      stage.qsig
  in
  (engine, qsig_engine)

(* One session on its shard: the sequence stream and what the summary
   reports of it, its query-axis scorer, and the labeled sink blocks it
   fired (the leakage summary turns them into a leak-capability note on
   its actionable verdicts). A shed session keeps its entry as [Shed_here],
   so its later items are ignored. *)
type session = {
  stream : Scoring.Stream.t;
  qsig : Adprom_qsig.Engine.Scorer.t option;  (* with the query axis on *)
  mutable windows : int;
  mutable worst : Detector.flag;
  mutable verdicts_rev : Detector.verdict list;  (* when verdicts are kept *)
  mutable sinks : int list;
}

type entry = Live of session | Shed_here

let worker ~idx ~profile ~stage ~keep_verdicts ~series:m ~alerts ~ring shard =
  let engine, qsig_engine = install stage profile in
  let sessions : (int, entry) Hashtbl.t = Hashtbl.create 64 in
  let entry id =
    match Hashtbl.find sessions id with
    | e -> e
    | exception Not_found ->
        let e =
          Live
            {
              stream = Scoring.Stream.create engine;
              qsig = Option.map Adprom_qsig.Engine.Scorer.create qsig_engine;
              windows = 0;
              worst = Detector.Normal;
              verdicts_rev = [];
              sinks = [];
            }
        in
        Hashtbl.replace sessions id e;
        e
  in
  let discarded = ref [] in
  (* engine-side tallies, mirrored into their counters as deltas *)
  let tallies =
    [
      ((fun () -> Scoring.cache_hits engine), m.cache_hits);
      ((fun () -> Scoring.cache_misses engine), m.cache_misses);
      ((fun () -> Scoring.gate_checks engine), m.gate_checks);
      ((fun () -> Scoring.gate_rejections engine), m.gate_rejections);
    ]
    @
    match qsig_engine with
    | None -> []
    | Some qe ->
        [
          ((fun () -> Adprom_qsig.Engine.gate_checks qe), m.qgate_checks);
          ((fun () -> Adprom_qsig.Engine.gate_rejections qe), m.qgate_rejections);
        ]
  in
  let synced = List.map (fun (get, c) -> (get, c, ref 0)) tallies in
  let sync () =
    List.iter
      (fun (get, c, seen) ->
        let x = get () in
        if x > !seen then begin
          Metrics.incr ~by:(x - !seen) c;
          seen := x
        end)
      synced
  in
  let leak_capability s =
    match
      List.filter_map (fun b -> List.assoc_opt b stage.sinks) s.sinks
      |> List.sort_uniq compare
    with
    | [] -> None
    | caps -> Some (String.concat "; " caps)
  in
  let account id s verdict =
    let flag = verdict.Detector.flag in
    s.windows <- s.windows + 1;
    if Detector.severity flag > Detector.severity s.worst then s.worst <- flag;
    if keep_verdicts then s.verdicts_rev <- verdict :: s.verdicts_rev;
    Metrics.incr m.windows;
    Metrics.incr m.flags.(Detector.severity flag);
    match flag with
    | Detector.Normal | Detector.Anomalous -> ()
    | Detector.Data_leak | Detector.Out_of_context ->
        (* actionable verdict: pay for the explanation (one extra
           forward pass) and an event on the shard's recent-events ring
           — both off the Normal fast path *)
        let explanation = Scoring.Stream.explain_last s.stream in
        let leak = leak_capability s in
        let logged =
          Alerts.record_verdict ?explanation ?leak alerts ~session:id
            ~window_index:(s.windows - 1) verdict
        in
        if logged && leak <> None then Metrics.incr m.leak_capable;
        if Olog.enabled Olog.Warn then
          Olog.emit ~ring Olog.Warn ~scope:"daemon"
            ~fields:
              ([
                 ("shard", Olog.Int idx);
                 ("session", Olog.Int id);
                 ("flag", Olog.Str (Detector.flag_to_string flag));
               ]
              @
              match explanation with
              | Some e -> [ ("gate", Olog.Str (Scoring.gate_to_string e.Scoring.gate)) ]
              | None -> [])
            "incident"
  in
  let handle_event deq_ns { Transport.session = id; event } enq_ns =
    Metrics.observe m.queue_wait (ns_to_s (deq_ns - enq_ns));
    match entry id with
    | Shed_here -> ()
    | Live s ->
        (match event.Runtime.Collector.symbol with
        | Analysis.Symbol.Lib { label = Some b; _ }
          when stage.sinks <> [] && List.mem_assoc b stage.sinks ->
            if not (List.mem b s.sinks) then s.sinks <- b :: s.sinks
        | _ -> ());
        let t0 = now_ns () in
        (match Scoring.Stream.push s.stream event with
        | Ok (Some verdict) ->
            account id s verdict;
            (* the verdict-completing event pays one extra clock read
               to date the whole ingest→verdict path *)
            Metrics.observe m.e2e (ns_to_s (now_ns () - enq_ns))
        | Ok None -> ()
        | Error _ ->
            (* a protocol slip (event after end-of-session), handled
               like a codec-level incident — never a dead shard *)
            Metrics.incr m.scorer_errors);
        Metrics.observe m.latency (ns_to_s (now_ns () - t0))
  in
  let handle_query deq_ns { Transport.q_session = id; rows; sql } enq_ns =
    Metrics.observe m.queue_wait (ns_to_s (deq_ns - enq_ns));
    if Option.is_some qsig_engine then
      match entry id with
      | Shed_here | Live { qsig = None; _ } -> ()
      | Live { qsig = Some qs; _ } ->
          let verdict = Adprom_qsig.Engine.Scorer.push qs ~rows sql in
          Metrics.incr m.qsig_checks;
          if verdict.Adprom_qsig.Engine.anomalous then begin
            Metrics.incr m.qsig_anomalies;
            ignore
              (Alerts.record_query_verdict alerts ~session:id
                 ~query_index:(Adprom_qsig.Engine.Scorer.queries_seen qs - 1)
                 ~sql verdict);
            if Olog.enabled Olog.Warn then
              Olog.emit ~ring Olog.Warn ~scope:"daemon"
                ~fields:
                  [
                    ("shard", Olog.Int idx);
                    ("session", Olog.Int id);
                    ( "reasons",
                      Olog.Str (Adprom_qsig.Engine.verdict_to_string verdict) );
                  ]
                "query_incident"
          end
  in
  (* discard the session's state; its later items are ignored *)
  let handle_shed id =
    (match Hashtbl.find_opt sessions id with
    | Some (Live s) ->
        discarded := (id, Scoring.Stream.events_seen s.stream) :: !discarded
    | Some Shed_here | None -> ());
    Hashtbl.replace sessions id Shed_here
  in
  (* Clear slot [i] of [c], so that the queue no longer holds its
     item, then handle the message. *)
  let handle deq_ns c i =
    let stamp = c.stamps.(i) and q = c.queries.(i) in
    if q != no_query then begin
      c.queries.(i) <- no_query;
      handle_query deq_ns q stamp
    end
    else begin
      let ev = c.events.(i) in
      c.events.(i) <- no_event;
      if stamp = shed_stamp then handle_shed ev.Transport.session
      else handle_event deq_ns ev stamp
    end
  in
  (* The [n] reserved messages from slot [pos] of [c] on, in order. A
     chunk is handed back once its last slot is behind the worker. *)
  let rec handle_run deq_ns c pos n =
    if n > 0 then
      if pos = chunk_slots then begin
        let next = c.next in
        release shard c;
        handle_run deq_ns next 0 n
      end
      else begin
        handle deq_ns c pos;
        handle_run deq_ns c (pos + 1) (n - 1)
      end
  in
  let rec loop () =
    let c, pos, n, finished =
      (* the queue-wait span covers blocking in [Condition.wait]: under
         tracing, long waits show up as long spans, not as gaps *)
      Otrace.with_span "daemon.queue_wait"
        ~attrs:(fun () -> [ ("shard", string_of_int idx) ])
        (fun () ->
          Mutex.lock shard.mutex;
          while shard.queued = 0 && not shard.closed do
            Condition.wait shard.nonempty shard.mutex
          done;
          (* reserve everything queued *)
          let c = shard.head and pos = shard.head_pos and n = shard.queued in
          shard.head <- shard.tail;
          shard.head_pos <- shard.tail_pos;
          shard.queued <- 0;
          let finished = shard.closed && n = 0 in
          Metrics.set_gauge shard.depth 0;
          Mutex.unlock shard.mutex;
          (c, pos, n, finished))
    in
    (* batch-granularity span: per-event spans would dominate the push
       itself; per-event latency is already in the latency histogram *)
    if n > 0 then begin
      (* one clock read dates the whole batch's dequeue: per-message
         reads would double the clock cost for no extra signal *)
      let deq_ns = now_ns () in
      Otrace.with_span "daemon.batch"
        ~attrs:(fun () -> [ ("shard", string_of_int idx); ("events", string_of_int n) ])
        (fun () -> handle_run deq_ns c pos n)
    end;
    sync ();
    if finished then begin
      (* every live session gets a report, including one whose only
         traffic was queries, so a query-axis alarm is never orphaned
         from the summary *)
      let reports =
        Hashtbl.fold
          (fun id e acc ->
            match e with
            | Shed_here -> acc
            | Live s ->
                Option.iter (account id s) (Scoring.Stream.flush s.stream);
                let qsig_checks, qsig_anomalies =
                  match s.qsig with
                  | Some qs ->
                      ( Adprom_qsig.Engine.Scorer.queries_seen qs,
                        Adprom_qsig.Engine.Scorer.anomalies qs )
                  | None -> (0, 0)
                in
                {
                  session = id;
                  events = Scoring.Stream.events_seen s.stream;
                  windows = s.windows;
                  worst = s.worst;
                  verdicts = List.rev s.verdicts_rev;
                  qsig_checks;
                  qsig_anomalies;
                }
                :: acc)
          sessions []
      in
      sync ();
      { reports; discarded = !discarded }
    end
    else loop ()
  in
  loop ()

let create ?(shards = 4) ?(queue_capacity = 4096) ?(keep_verdicts = true) ?alerts
    ?vet_against ?(vet_policy = Adprom.Profile_check.Warn)
    ?(static_gate = Gate_explain) ?(qsig_mode = Qsig_off) ?qsig_profile
    ?(qsig_static_gate = Gate_explain) ?leakage_policy profile =
  if shards < 1 then invalid_arg "Daemon.create: need at least one shard";
  if queue_capacity < 0 then invalid_arg "Daemon.create: negative queue capacity";
  let metrics = Metrics.create () in
  let alerts = match alerts with Some a -> a | None -> Alerts.create () in
  let stage =
    build_stage ~metrics ?vet_against ~vet_policy ~static_gate ~qsig_mode
      ?qsig_profile ~qsig_static_gate ?leakage_policy profile
  in
  let series = register_series metrics in
  let shard_array =
    Array.init shards (fun i ->
        let c = new_chunk () in
        {
          mutex = Mutex.create ();
          nonempty = Condition.create ();
          head = c;
          head_pos = 0;
          tail = c;
          tail_pos = 0;
          queued = 0;
          spares = last_chunk;
          spare_count = 0;
          closed = false;
          depth = Metrics.gauge metrics (Printf.sprintf "adprom_queue_depth_shard%d" i);
        })
  in
  (* the 256 most recent events of each shard *)
  let rings = Array.init shards (fun _ -> Oring.create 256) in
  (* every span finished while this daemon lives lands in a metrics
     histogram; removed at drain so a later daemon re-registers its own *)
  let span_hook = Otrace.on_span_end (Metrics.span_exporter metrics) in
  let workers =
    Array.mapi
      (fun idx shard ->
        Domain.spawn (fun () ->
            worker ~idx ~profile ~stage ~keep_verdicts ~series ~alerts
              ~ring:rings.(idx) shard))
      shard_array
  in
  {
    profile;
    capacity = queue_capacity;
    keep_verdicts;
    qsig_active = stage.qsig <> None;
    shards = shard_array;
    workers;
    metrics;
    alerts;
    rings;
    span_hook;
    shed_at_door = Hashtbl.create 16;
    offered = 0;
    ingested = 0;
    dropped = 0;
    draining = false;
    c_offered = Metrics.counter metrics "adprom_events_offered_total";
    c_ingested = Metrics.counter metrics "adprom_events_ingested_total";
    c_dropped = Metrics.counter metrics "adprom_events_dropped_total";
    c_shed_sessions = Metrics.counter metrics "adprom_sessions_shed_total";
  }

let drop t ev =
  t.dropped <- t.dropped + 1;
  Metrics.incr t.c_dropped;
  match Hashtbl.find_opt t.shed_at_door ev.Transport.session with
  | Some n -> incr n
  | None -> Hashtbl.replace t.shed_at_door ev.Transport.session (ref 1)

let ingest t ev =
  if t.draining then invalid_arg "Daemon.ingest: daemon already drained";
  if ev.Transport.session < 0 then invalid_arg "Daemon.ingest: negative session id";
  t.offered <- t.offered + 1;
  Metrics.incr t.c_offered;
  if Hashtbl.mem t.shed_at_door ev.Transport.session then begin
    drop t ev;
    Rejected { newly_shed = false }
  end
  else begin
    let shard = t.shards.(shard_of t ev.Transport.session) in
    Mutex.lock shard.mutex;
    let depth = shard.queued in
    if depth >= t.capacity then begin
      (* Overload: shed the whole session, never individual events —
         dropping single events would fabricate call transitions that
         no program run produced (see Core.Sessions). The control
         message is exempt from the bound so the worker can discard the
         session's partial state. *)
      push_event shard ev shed_stamp;
      Condition.signal shard.nonempty;
      Mutex.unlock shard.mutex;
      Metrics.incr t.c_shed_sessions;
      drop t ev;
      Rejected { newly_shed = true }
    end
    else begin
      push_event shard ev (now_ns ());
      Metrics.set_gauge shard.depth (depth + 1);
      Condition.signal shard.nonempty;
      Mutex.unlock shard.mutex;
      t.ingested <- t.ingested + 1;
      Metrics.incr t.c_ingested;
      Accepted
    end
  end

let ingest_query t (q : Transport.query) =
  if t.draining then invalid_arg "Daemon.ingest_query: daemon already drained";
  if q.Transport.q_session < 0 then
    invalid_arg "Daemon.ingest_query: negative session id";
  if not t.qsig_active then Accepted
  else if Hashtbl.mem t.shed_at_door q.Transport.q_session then
    (* the session is already gone; its queries follow its events out *)
    Rejected { newly_shed = false }
  else begin
    (* Queries are low-volume side traffic (one per DB call, not one
       per library call) and never fabricate call transitions, so they
       are exempt from the shedding bound, like the control message. *)
    let shard = t.shards.(shard_of t q.Transport.q_session) in
    Mutex.lock shard.mutex;
    push_query shard q (now_ns ());
    Condition.signal shard.nonempty;
    Mutex.unlock shard.mutex;
    Accepted
  end

let ingest_item t = function
  | Transport.Call ev -> ingest t ev
  | Transport.Query q -> ingest_query t q

let drain t =
  if t.draining then invalid_arg "Daemon.drain: daemon already drained";
  t.draining <- true;
  Array.iter
    (fun shard ->
      Mutex.lock shard.mutex;
      shard.closed <- true;
      Condition.broadcast shard.nonempty;
      Mutex.unlock shard.mutex)
    t.shards;
  let results = Array.map Domain.join t.workers in
  Otrace.remove_hook t.span_hook;
  let discarded =
    Array.to_list results |> List.concat_map (fun r -> r.discarded)
  in
  let sessions =
    Array.to_list results
    |> List.concat_map (fun r -> r.reports)
    |> List.filter (fun r -> not (Hashtbl.mem t.shed_at_door r.session))
    |> List.sort (fun a b -> compare a.session b.session)
  in
  let shed =
    Hashtbl.fold
      (fun session dropped acc ->
        let prefix =
          match List.assoc_opt session discarded with Some n -> n | None -> 0
        in
        (session, !dropped, prefix) :: acc)
      t.shed_at_door []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  {
    sessions;
    shed;
    events_offered = t.offered;
    events_ingested = t.ingested;
    events_dropped = t.dropped;
  }

let metrics t = t.metrics
let alerts t = t.alerts
let queue_capacity t = t.capacity

let recent_events t =
  Array.to_list t.rings
  |> List.concat_map Oring.to_list
  |> List.stable_sort (fun (a : Olog.event) b -> compare a.Olog.time b.Olog.time)
