(* Measuring one workload: set up five times, drive the stream through
   timed reps for the run's seconds, validate the outputs, and — in a
   traced run — replay the reps under spans and probe each layer on its
   own. Forks (set-up samples, TCP nodes) all happen before the process
   spawns its first daemon domain, except for in-process workloads,
   which fork nothing after set-up. *)

module W = Workload
module Transport = Sut.Transport
module Daemon = Sut.Daemon
module Alerts = Sut.Alerts
module Frame = Adprom_service.Frame

let ample = 1 lsl 20 (* a queue bound above any stream: bursts never shed *)
let paced_capacity = 4096 (* the daemon's default bound *)
let block = 1024 (* items per timed ingest or send block *)
let rate = 20_000. (* calls per second offered by the paced generator *)
let tick_calls = 20 (* calls per 1 ms tick *)

(* A paced run holds its schedule when 99% of its ticks start less than
   one tick period late; alert latencies of a run that fell further
   behind time the generator, not the monitor. A busy host can delay
   the generator's wakeups past that without any output being wrong, so
   this marks the run's alert latencies invalid rather than failing it. *)
let late_limit_us = 1e6 *. float_of_int tick_calls /. rate

(* Set-ups per run: single set-ups on a shared host now and then take
   half as long again, and the median of five outlasts two of those. *)
let setup_samples = 5

(* --- child processes ---------------------------------------------------- *)

(* Run [f] in a forked child and return its (marshalled) result. The
   caller must not have spawned domains. *)
let in_child (f : unit -> 'a) : 'a =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let res = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
      flush stdout;
      flush stderr;
      let oc = Unix.out_channel_of_descr w in
      Marshal.to_channel oc (res : ('a, string) result) [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let res =
        match (Marshal.from_channel ic : ('a, string) result) with
        | res -> res
        | exception e -> Error ("child sent no result: " ^ Printexc.to_string e)
      in
      close_in_noerr ic;
      let _, status = Unix.waitpid [] pid in
      match (res, status) with
      | Ok v, Unix.WEXITED 0 -> v
      | Error e, _ -> failwith e
      | Ok _, _ -> failwith "child exited abnormally")

(* --- set-up ----------------------------------------------------------------- *)

type setup = {
  collect_s : float;
  train_s : float;
  qsig_s : float;
  ready_s : float;  (** [Daemon.create] in process; node fork to [Hello] over TCP *)
}

let setup_s s = s.collect_s +. s.train_s +. s.qsig_s +. s.ready_s

let ok_or_fail what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

let connect_node node =
  match Sut.connect node with
  | Ok router -> router
  | Error e ->
      Sut.kill node;
      failwith ("router connect: " ^ e)

(* From a cold process to ready-to-ingest: training, then the first
   daemon (vet, sequence automaton, static query set) or, over TCP, a
   forked node answering [Hello]. The daemon or node is torn down
   untimed. *)
let setup_once w a =
  let tr = W.train a in
  let ready_s =
    match W.delivery w with
    | W.Burst | W.Paced ->
        let d, s =
          Stats.time (fun () ->
              Span.with_ "daemon.create" (fun () ->
                  Sut.daemon ~queue_capacity:ample ~alerts:(Sut.alerts ()) tr.W.sys))
        in
        ignore (Sut.drain d);
        s
    | W.Tcp ->
        let (node, router), s =
          Stats.time (fun () ->
              Span.with_ "server.ready" (fun () ->
                  let node = Sut.spawn_node ~queue_capacity:ample tr.W.sys in
                  (node, connect_node node)))
        in
        (match Sut.finish router with
        | Ok _ -> ignore (Sut.reap node)
        | Error e ->
            Sut.kill node;
            failwith ("router finish: " ^ e));
        s
  in
  (tr, { collect_s = tr.W.collect_s; train_s = tr.W.train_s; qsig_s = tr.W.qsig_s; ready_s })

(* --- timed reps --------------------------------------------------------- *)

type rep = {
  wall_s : float;
  cpu_s : float;  (** this process and reaped children *)
  node_cpu_s : float;  (** reaped children: the TCP node *)
  send_s : float;  (** TCP: sends, [flush_all] and the metrics round trip *)
  finish_s : float;  (** TCP: [Router.finish] up to the node's [Summary] *)
  offered : int;  (** items *)
  failed : int;  (** shed or refused, lost, scorer and decode errors *)
  minor_words : float;
  major_collections : int;
  incidents : (int * string) list;  (** sorted multiset *)
  keys : Check.key list;
  latencies_us : float list;  (** alert latency of each timed incident *)
  flush_incidents : int;  (** verdicts of short sessions, only known at drain *)
  late_us : float array;  (** paced: how late each tick started *)
  node_rss_kb : int;
  shed : int list;  (** sessions the daemon shed on overload *)
}

let shed_ids (s : Daemon.summary) = List.map (fun (id, _, _) -> id) s.Daemon.shed

let cpu_split () =
  let t = Unix.times () in
  (t.Unix.tms_utime +. t.Unix.tms_stime, t.Unix.tms_cutime +. t.Unix.tms_cstime)

(* Alert latency: an incident's record time minus the time its
   window-completing item (or its query record) was sent or due. *)
let latencies (st : W.stream) sys ~sent_s incidents =
  let window = Check.window sys in
  List.fold_left
    (fun (lat, flush) (session, source, time) ->
      let s = st.W.sessions.(session) in
      match source with
      | Alerts.Verdict { window_index; _ } ->
          if Array.length s.W.calls < window then (lat, flush + 1)
          else ((time -. sent_s s.W.call_pos.(window_index + window - 1)) *. 1e6 :: lat, flush)
      | Alerts.Query_verdict { query_index; _ } ->
          ((time -. sent_s s.W.query_pos.(query_index)) *. 1e6 :: lat, flush)
      | Alerts.Finding _ -> (lat, flush))
    ([], 0) incidents

let timed_incidents alerts =
  List.map
    (fun (i : Alerts.incident) -> (i.Alerts.session, i.Alerts.source, i.Alerts.time))
    (Alerts.incidents alerts)

let measure_rep body =
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let self0, child0 = cpu_split () in
  let r = body () in
  let self1, child1 = cpu_split () in
  let g1 = Gc.quick_stat () in
  ( r,
    self1 -. self0 +. (child1 -. child0),
    child1 -. child0,
    g1.Gc.minor_words -. g0.Gc.minor_words,
    g1.Gc.major_collections - g0.Gc.major_collections )

let ingest_range d items lo hi =
  let refused = ref 0 in
  for i = lo to hi - 1 do
    if not (Sut.ingest d items.(i)) then incr refused
  done;
  !refused

(* Closed loop in process: ingest every item, then drain. *)
let burst_rep (st : W.stream) sys =
  let items = st.W.items in
  let n = Array.length items in
  let sent = Array.make ((n + block - 1) / block) 0L in
  let alerts = Sut.alerts () in
  let d =
    Span.with_ "daemon.create" (fun () ->
        Affinity.with_worker (fun () -> Sut.daemon ~queue_capacity:ample ~alerts sys))
  in
  let (wall_s, refused, summary), cpu_s, node_cpu_s, minor_words, major_collections =
    measure_rep (fun () ->
        let t0 = Stats.now_ns () in
        Span.with_ "rep" (fun () ->
            let refused = ref 0 in
            for b = 0 to Array.length sent - 1 do
              sent.(b) <- Stats.now_ns ();
              Span.with_ "daemon.ingest" (fun () ->
                  refused := !refused + ingest_range d items (b * block) (min n ((b + 1) * block)))
            done;
            let summary = Span.with_ "daemon.drain" (fun () -> Sut.drain d) in
            (Stats.seconds_since t0, !refused, summary)))
  in
  let incidents = timed_incidents alerts in
  let latencies_us, flush_incidents =
    latencies st sys ~sent_s:(fun pos -> Stats.ns_to_s sent.(pos / block)) incidents
  in
  {
    wall_s;
    cpu_s;
    node_cpu_s;
    send_s = 0.;
    finish_s = 0.;
    offered = n;
    failed = refused + summary.Daemon.events_dropped + Sut.scorer_errors d;
    minor_words;
    major_collections;
    incidents = Check.rendered (Alerts.incidents alerts);
    keys = Check.session_keys summary;
    latencies_us;
    flush_incidents;
    late_us = [||];
    node_rss_kb = 0;
    shed = shed_ids summary;
  }

(* Tick k covers the items from the (k * tick_calls)-th call up to the
   next tick's first call. *)
let ticks (st : W.stream) =
  let starts = ref [ 0 ] and calls = ref 0 in
  Array.iteri
    (fun i -> function
      | Transport.Call _ ->
          if !calls > 0 && !calls mod tick_calls = 0 then starts := i :: !starts;
          incr calls
      | Transport.Query _ -> ())
    st.W.items;
  let starts = Array.of_list (List.rev !starts) in
  let tick_of = Array.make (Array.length st.W.items) 0 in
  Array.iteri
    (fun k lo ->
      let hi = if k + 1 < Array.length starts then starts.(k + 1) else Array.length tick_of in
      Array.fill tick_of lo (hi - lo) k)
    starts;
  (starts, tick_of)

(* Open loop in process: ticks of [tick_calls] calls due every
   [tick_calls / rate] seconds whatever the daemon does, into a queue
   with the default bound, so a backlog shows as shedding. *)
let paced_rep (st : W.stream) sys (starts, tick_of) =
  let items = st.W.items in
  let n = Array.length items in
  let nt = Array.length starts in
  let period = Int64.of_float (1e9 *. float_of_int tick_calls /. rate) in
  let late_us = Array.make nt 0. in
  let alerts = Sut.alerts () in
  let d =
    Span.with_ "daemon.create" (fun () ->
        Affinity.with_worker (fun () -> Sut.daemon ~queue_capacity:paced_capacity ~alerts sys))
  in
  let start = ref 0L in
  let (wall_s, refused, summary), cpu_s, node_cpu_s, minor_words, major_collections =
    measure_rep (fun () ->
        start := Int64.add (Stats.now_ns ()) period;
        Span.with_ "rep" (fun () ->
            let refused = ref 0 in
            for k = 0 to nt - 1 do
              let due = Int64.add !start (Int64.mul (Int64.of_int k) period) in
              let ahead = Int64.sub due (Stats.now_ns ()) in
              if ahead > 0L then
                Span.with_ "gen.idle" (fun () -> Unix.sleepf (Stats.ns_to_s ahead));
              late_us.(k) <- Int64.to_float (Int64.sub (Stats.now_ns ()) due) /. 1e3;
              let hi = if k + 1 < nt then starts.(k + 1) else n in
              Span.with_ "daemon.ingest" (fun () ->
                  refused := !refused + ingest_range d items starts.(k) hi)
            done;
            let summary = Span.with_ "daemon.drain" (fun () -> Sut.drain d) in
            (Stats.seconds_since !start, !refused, summary)))
  in
  let due_s pos =
    Stats.ns_to_s (Int64.add !start (Int64.mul (Int64.of_int tick_of.(pos)) period))
  in
  let latencies_us, flush_incidents =
    latencies st sys ~sent_s:due_s (timed_incidents alerts)
  in
  {
    wall_s;
    cpu_s;
    node_cpu_s;
    send_s = 0.;
    finish_s = 0.;
    offered = n;
    failed = refused + summary.Daemon.events_dropped + Sut.scorer_errors d;
    minor_words;
    major_collections;
    incidents = Check.rendered (Alerts.incidents alerts);
    keys = Check.session_keys summary;
    latencies_us;
    flush_incidents;
    late_us;
    node_rss_kb = 0;
    shed = shed_ids summary;
  }

(* Closed loop over the binary wire: a freshly forked node, timed from
   the first send to the node's [Summary]. A metrics round trip after
   the last flush marks the point where the node has taken every item. *)
let tcp_rep ?(keep_verdicts = false) (st : W.stream) sys =
  let items = st.W.items in
  let n = Array.length items in
  let sent = Array.make ((n + block - 1) / block) 0L in
  let node, router =
    Span.with_ "server.ready" (fun () ->
        let node = Sut.spawn_node ~keep_verdicts ~queue_capacity:ample sys in
        let router = connect_node node in
        Affinity.place_node node.Sut.local.Adprom_service.Cluster.pid;
        (node, router))
  in
  let body () =
    let t0 = Stats.now_ns () in
    let lost, merged, send_s, finish_s, wall =
      Span.with_ "rep" (fun () ->
          let (), send_s =
            Stats.time (fun () ->
                for b = 0 to Array.length sent - 1 do
                  sent.(b) <- Stats.now_ns ();
                  Span.with_ "router.send" (fun () ->
                      for i = b * block to min n ((b + 1) * block) - 1 do
                        ok_or_fail "router send" (Sut.send router items.(i))
                      done)
                done;
                Span.with_ "router.flush_all" (fun () ->
                    ok_or_fail "router flush" (Sut.flush_all router));
                ignore
                  (Span.with_ "router.metrics" (fun () ->
                       ok_or_fail "router metrics" (Sut.router_metrics router))))
          in
          let lost = Sut.lost_items router in
          let merged, finish_s =
            Stats.time (fun () ->
                Span.with_ "router.finish" (fun () -> ok_or_fail "router finish" (Sut.finish router)))
          in
          (lost, merged, send_s, finish_s, Stats.seconds_since t0))
    in
    let report = Span.with_ "node.reap" (fun () -> Sut.reap node) in
    (wall, lost, merged, send_s, finish_s, report)
  in
  let ( (wall_s, lost, merged, send_s, finish_s, report),
        cpu_s,
        node_cpu_s,
        minor_words,
        major_collections ) =
    (* a failed rep must not leave its node waiting for items forever *)
    match measure_rep body with
    | r -> r
    | exception e ->
        Sut.kill node;
        raise e
  in
  let latencies_us, flush_incidents =
    latencies st sys ~sent_s:(fun pos -> Stats.ns_to_s sent.(pos / block)) report.Sut.incidents
  in
  let summary = merged.Frame.summary in
  {
    wall_s;
    cpu_s;
    node_cpu_s;
    send_s;
    finish_s;
    offered = n;
    failed =
      summary.Daemon.events_dropped + lost + report.Sut.scorer_errors + report.Sut.decode_errors;
    minor_words;
    major_collections;
    incidents = Check.multiset merged.Frame.incidents;
    keys = Check.session_keys summary;
    latencies_us;
    flush_incidents;
    late_us = [||];
    node_rss_kb = report.Sut.rss_growth_kb;
    shed = shed_ids summary;
  }

(* Reps until [seconds] of wall time are used (at least one). *)
let reps_for ~seconds rep =
  let t0 = Stats.now_ns () in
  let rec go acc last =
    let elapsed = Stats.seconds_since t0 in
    if acc <> [] && elapsed +. last > seconds then List.rev acc
    else
      let r0 = Stats.now_ns () in
      let r = rep () in
      go (r :: acc) (Stats.seconds_since r0)
  in
  go [] 0.

(* --- validation ----------------------------------------------------------- *)

type validation = {
  summary : Daemon.summary;
  v_incidents : Alerts.incident list;
  refused : int;
  create_s : float;
  ingest_s : float;
  drain_s : float;
}

(* One untimed in-process pass that keeps every verdict: what the gates
   compare against. *)
let validate (st : W.stream) sys =
  Gc.full_major ();
  let alerts = Sut.alerts () in
  let d, create_s =
    Stats.time (fun () ->
        Affinity.with_worker (fun () ->
            Sut.daemon ~keep_verdicts:true ~queue_capacity:ample ~alerts sys))
  in
  let refused, ingest_s =
    Stats.time (fun () -> ingest_range d st.W.items 0 (Array.length st.W.items))
  in
  let summary, drain_s = Stats.time (fun () -> Sut.drain d) in
  { summary; v_incidents = Alerts.incidents alerts; refused; create_s; ingest_s; drain_s }

(* --- layer probes: each layer alone, single-threaded, on the stream --- *)

type probes = {
  push_ns : float;  (** cold [Scoring.Stream] replay, per call *)
  push_warm_ns : float;  (** second replay on the same engine: memo hits *)
  hit_rate : float;
  forward_passes : int;
  explain_ns : float;  (** total, over the replay's actionable verdicts *)
  explained : int;
  nomemo_ns : float;  (** per distinct window, memo disabled *)
  qsig_ns : float;  (** total over the stream's query records *)
  qsig_checks : int;
  qsig_hit_rate : float;
  qsig_anomalies : int;
  encode_ns : float;  (** per item, binary frames *)
  decode_ns : float;
  bytes_per_item : float;
  roundtrip : bool;
}

let ratio hits misses = float_of_int hits /. float_of_int (max 1 (hits + misses))

let scoring_probe (st : W.stream) sys =
  let engine = Adprom.Scoring.create sys.Sut.profile in
  let pass () =
    let streams = Hashtbl.create 4096 in
    let explain_ns = ref 0L and explained = ref 0 in
    let t0 = Stats.now_ns () in
    Array.iter
      (function
        | Transport.Call { Transport.session; event } -> (
            let s =
              match Hashtbl.find_opt streams session with
              | Some s -> s
              | None ->
                  let s = Adprom.Scoring.Stream.create engine in
                  Hashtbl.replace streams session s;
                  s
            in
            match Adprom.Scoring.Stream.push s event with
            | Ok (Some { Adprom.Scoring.flag = Adprom.Scoring.Data_leak | Adprom.Scoring.Out_of_context; _ })
              ->
                let t = Stats.now_ns () in
                ignore (Adprom.Scoring.Stream.explain_last s);
                explain_ns := Int64.add !explain_ns (Int64.sub (Stats.now_ns ()) t);
                incr explained
            | Ok _ -> ()
            | Error e -> failwith ("scoring probe: " ^ e))
        | Transport.Query _ -> ())
      st.W.items;
    Hashtbl.iter (fun _ s -> ignore (Adprom.Scoring.Stream.flush s)) streams;
    let total = Int64.sub (Stats.now_ns ()) t0 in
    (Int64.to_float (Int64.sub total !explain_ns), Int64.to_float !explain_ns, !explained)
  in
  let calls = float_of_int st.W.calls in
  let cold, explain_ns, explained = Span.with_ "probe.scoring.cold" pass in
  let hits = Adprom.Scoring.cache_hits engine and misses = Adprom.Scoring.cache_misses engine in
  let warm, _, _ = Span.with_ "probe.scoring.warm" pass in
  (cold /. calls, warm /. calls, ratio hits misses, misses, explain_ns, explained)

let nomemo_probe sys windows =
  let engine = Adprom.Scoring.create ~cache_capacity:0 sys.Sut.profile in
  let (), s =
    Stats.time (fun () ->
        Span.with_ "probe.scoring.nomemo" (fun () ->
            List.iter (fun w -> ignore (Adprom.Scoring.classify engine w)) windows))
  in
  s *. 1e9 /. float_of_int (max 1 (List.length windows))

let qsig_probe (st : W.stream) sys =
  match sys.Sut.qsig with
  | None -> (0., 0, 0., 0)
  | Some qp ->
      let engine = Adprom_qsig.Engine.create ~policy:Sut.qsig_policy qp in
      let (), s =
        Stats.time (fun () ->
            Span.with_ "probe.qsig" (fun () ->
                Array.iter
                  (function
                    | Transport.Query { Transport.rows; sql; _ } ->
                        ignore (Adprom_qsig.Engine.check ~rows engine sql)
                    | Transport.Call _ -> ())
                  st.W.items))
      in
      ( s *. 1e9,
        Adprom_qsig.Engine.checks engine,
        ratio (Adprom_qsig.Engine.memo_hits engine) (Adprom_qsig.Engine.memo_misses engine),
        Adprom_qsig.Engine.anomalies engine )

(* The streaming shape the router and node run: encode into a
   connection buffer handed off every 64 KiB, decode 64 KiB reads. *)
let frame_probe (st : W.stream) =
  let module C = Frame.T in
  let chunk = 65536 in
  let items = st.W.items in
  let n = Array.length items in
  let bytes = Transport.encode_all (module Frame.T) items in
  let roundtrip =
    match Transport.decode_all (module Frame.T) bytes with Ok back -> back = items | Error _ -> false
  in
  let (), enc_s =
    Stats.time (fun () ->
        Span.with_ "probe.frame.encode" (fun () ->
            let enc = C.encoder () in
            let buf = Buffer.create (2 * chunk) in
            Array.iter
              (fun it ->
                C.encode enc buf it;
                if Buffer.length buf >= chunk then Buffer.clear buf)
              items;
            C.flush enc buf))
  in
  let count = ref 0 in
  let (), dec_s =
    Stats.time (fun () ->
        Span.with_ "probe.frame.decode" (fun () ->
            let dec = C.decoder () in
            let len = String.length bytes in
            let pos = ref 0 in
            while !pos < len do
              let l = min chunk (len - !pos) in
              (match C.fold dec ~pos:!pos ~len:l bytes ~init:() ~f:(fun () _ -> incr count) with
              | Ok () -> ()
              | Error e -> failwith ("frame decode: " ^ e));
              pos := !pos + l
            done;
            match C.finish dec with
            | Ok rest -> count := !count + List.length rest
            | Error e -> failwith ("frame finish: " ^ e)))
  in
  let per s = s *. 1e9 /. float_of_int n in
  (per enc_s, per dec_s, float_of_int (String.length bytes) /. float_of_int n, roundtrip && !count = n)

let probe_once st sys windows =
  let push_ns, push_warm_ns, hit_rate, forward_passes, explain_ns, explained =
    scoring_probe st sys
  in
  let nomemo_ns = nomemo_probe sys windows in
  let qsig_ns, qsig_checks, qsig_hit_rate, qsig_anomalies = qsig_probe st sys in
  let encode_ns, decode_ns, bytes_per_item, roundtrip = frame_probe st in
  {
    push_ns;
    push_warm_ns;
    hit_rate;
    forward_passes;
    explain_ns;
    explained;
    nomemo_ns;
    qsig_ns;
    qsig_checks;
    qsig_hit_rate;
    qsig_anomalies;
    encode_ns;
    decode_ns;
    bytes_per_item;
    roundtrip;
  }

(* Three rounds of every probe, each timing the median round: one
   single-threaded pass is at the mercy of a busy host for its whole
   length. Counts repeat exactly across rounds. *)
let probes st sys windows =
  let rounds = List.init 3 (fun _ -> probe_once st sys windows) in
  let med f = Stats.median (List.map f rounds) in
  let p = List.hd rounds in
  {
    p with
    push_ns = med (fun p -> p.push_ns);
    push_warm_ns = med (fun p -> p.push_warm_ns);
    explain_ns = med (fun p -> p.explain_ns);
    nomemo_ns = med (fun p -> p.nomemo_ns);
    qsig_ns = med (fun p -> p.qsig_ns);
    encode_ns = med (fun p -> p.encode_ns);
    decode_ns = med (fun p -> p.decode_ns);
    roundtrip = List.for_all (fun p -> p.roundtrip) rounds;
  }

(* --- one workload, end to end ------------------------------------------ *)

(* A metric's value is the median of its samples (reps, set-ups, probe
   rounds); a single measurement is its own median. *)
type metric = { name : string; unit_ : string; value : float; samples : float list }

let metric name unit_ samples = { name; unit_; value = Stats.median samples; samples }
let scalar name unit_ v = metric name unit_ [ v ]

type result = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  gates : Check.gate list;
  validity : Check.gate list;  (** whether the run measured what it meant to; not correctness *)
  attempted : int;
  failed : int;
  e2e : metric list;
  layer : metric list;
  stack : (string * float) list;  (** ns per call event, per layer *)
  wall_ns : float;  (** 1e9 / events_per_s *)
  self_times : (string * float * int) list;  (** traced pass: span, ns per call, spans *)
  flush_windows : int;  (** incidents of short sessions, left out of latency *)
}

let find_metric (r : result) name = List.find_opt (fun m -> m.name = name) (r.e2e @ r.layer)

let run_workload w ~seed ~seconds ~trace ~trace_file =
  let a = W.app_of w in
  let child_setups =
    List.init (setup_samples - 1) (fun _ -> in_child (fun () -> snd (setup_once w a)))
  in
  Span.clear ();
  Span.enabled := trace;
  let tr, own = setup_once w a in
  Span.enabled := false;
  let setups = child_setups @ [ own ] in
  Affinity.pin_front ();
  let sys = tr.W.sys in
  let st = W.stream w ~seed a tr in
  let calls = float_of_int st.W.calls in
  let rep =
    match W.delivery w with
    | W.Burst -> fun () -> burst_rep st sys
    | W.Paced ->
        let tk = ticks st in
        fun () -> paced_rep st sys tk
    | W.Tcp -> fun () -> tcp_rep st sys
  in
  let reps = reps_for ~seconds rep in
  let traced_since = Stats.now_ns () in
  let traced_reps =
    if not trace then []
    else begin
      Span.enabled := true;
      let r = reps_for ~seconds:(seconds /. 2.) rep in
      Span.enabled := false;
      r
    end
  in
  let traced_until = Stats.now_ns () in
  let all_reps = reps @ traced_reps in
  let peak_kb =
    Sut.status_kb "VmHWM" + List.fold_left (fun m r -> max m r.node_rss_kb) 0 all_reps
  in
  (* over the wire first: a process with daemon domains must not fork *)
  let wire = if W.delivery w = W.Tcp then Some (tcp_rep ~keep_verdicts:true st sys) else None in
  let v = validate st sys in
  let windows = Check.distinct_windows st sys in
  let keys = Check.session_keys v.summary and incidents = Check.rendered v.v_incidents in
  let late = Array.concat (List.map (fun r -> r.late_us) all_reps) in
  let late_p99 = Stats.quantile 0.99 late and late_max = Stats.quantile 1. late in
  let gates =
    [
      Check.gate "validation pass took every item"
        (v.refused = 0 && v.summary.Daemon.events_dropped = 0)
        (Printf.sprintf "%d items, %d calls" (Array.length st.W.items) st.W.calls);
      Check.reference_windows sys windows;
      Check.live_equals_batch st sys v.summary;
      Check.verify_sample st sys v.summary;
      Check.qsig_equals_check_log st sys v.summary v.v_incidents;
      Check.reps_equal ~incidents ~keys
        (List.map (fun r -> (r.incidents, r.keys, r.shed)) all_reps);
    ]
    @ (match wire with
      | None -> []
      | Some r ->
          [
            Check.gate "TCP summary = in-process summary"
              (r.keys = keys && r.incidents = incidents && r.failed = 0)
              (Printf.sprintf "%d sessions, %d incidents" (List.length keys)
                 (List.length incidents));
          ])
  in
  let validity =
    if W.delivery w = W.Paced then
      [
        Check.gate "paced generator held its schedule" (late_p99 <= late_limit_us)
          (Printf.sprintf "tick lateness p99 %.0f us (limit %.0f), max %.0f us" late_p99
             late_limit_us late_max);
      ]
    else []
  in
  let rate_of (r : rep) = calls /. r.wall_s in
  let e2e =
    [
      metric "setup_s" "s" (List.map setup_s setups);
      scalar "peak_rss_mb" "MiB" (float_of_int peak_kb /. 1024.);
    ]
  in
  let attempted = List.fold_left (fun a (r : rep) -> a + r.offered) 0 all_reps in
  let failed = List.fold_left (fun a (r : rep) -> a + r.failed) 0 all_reps in
  let rep_rate reps = Stats.median (List.map rate_of reps) in
  let wall_ns = 1e9 /. rep_rate reps in
  let items_per_call = float_of_int (Array.length st.W.items) /. calls in
  let in_traced_reps s = s.Span.start_ns >= traced_since && s.Span.start_ns < traced_until in
  let self_times =
    if trace then
      List.map
        (fun (name, ns, k) -> (name, ns /. (calls *. float_of_int (List.length traced_reps)), k))
        (Span.self_times ~under:in_traced_reps ())
    else []
  in
  let span_durations name =
    List.filter_map
      (fun s -> if s.Span.name = name && in_traced_reps s then Some (Stats.ns_to_s (Span.dur s)) else None)
      (Span.recorded ())
  in
  let latencies = Array.of_list (List.concat_map (fun r -> r.latencies_us) reps) in
  let tcp = W.delivery w = W.Tcp in
  (* layers a workload does not run measure 0 *)
  let on_tcp f = if tcp then List.map f reps else [ 0. ] in
  let ready = List.map (fun s -> s.ready_s) setups in
  let stack, layer, probe_gates =
    if not trace then ([], [], [])
    else begin
      Span.enabled := true;
      let p = probes st sys windows in
      Span.enabled := false;
      let ingest_ns, drain =
        if tcp then (v.ingest_s *. 1e9 /. float_of_int (Array.length st.W.items), [ v.drain_s ])
        else
          let total = List.fold_left (fun a s -> a +. s) 0. (span_durations "daemon.ingest") in
          ( total *. 1e9 /. float_of_int (Array.length st.W.items * List.length traced_reps),
            span_durations "daemon.drain" )
      in
      let stack =
        [
          ("daemon.ingest", ingest_ns *. items_per_call);
          ("scoring.push", p.push_ns);
          ("scoring.explain", p.explain_ns /. calls);
          ("qsig.check", p.qsig_ns /. calls);
        ]
        @
        if tcp then
          [
            ("frame.encode", p.encode_ns *. items_per_call);
            ("frame.decode", p.decode_ns *. items_per_call);
          ]
        else []
      in
      let sum = List.fold_left (fun a (_, ns) -> a +. ns) 0. stack in
      let layer =
        [
          (* throughput and CPU per call did not repeat within a 10% bound
             across runs of the same code (calibration/README.md), so they
             carry no bound *)
          metric "events_per_s" "1/s" (List.map rate_of reps);
          metric "cpu_ns_per_event" "ns" (List.map (fun r -> r.cpu_s *. 1e9 /. calls) reps);
          metric "pipeline.collect_s" "s" (List.map (fun s -> s.collect_s) setups);
          metric "pipeline.train_s" "s" (List.map (fun s -> s.train_s) setups);
          metric "qsig.learn_s" "s" (List.map (fun s -> s.qsig_s) setups);
          (* over TCP the node creates its daemon inside server.ready; the
             validation pass's daemon stands in for it *)
          (if tcp then scalar "daemon.create_s" "s" v.create_s
           else metric "daemon.create_s" "s" ready);
          (if tcp then metric "server.ready_s" "s" ready else scalar "server.ready_s" "s" 0.);
          scalar "daemon.ingest_ns_per_item" "ns" ingest_ns;
          metric "daemon.drain_s" "s" drain;
          scalar "scoring.push_ns_per_event" "ns" p.push_ns;
          scalar "scoring.push_warm_ns_per_event" "ns" p.push_warm_ns;
          scalar "scoring.memo_hit_rate" "frac" p.hit_rate;
          scalar "scoring.forward_passes" "count" (float_of_int p.forward_passes);
          scalar "scoring.classify_nomemo_ns_per_window" "ns" p.nomemo_ns;
          scalar "scoring.explain_us_per_incident" "us"
            (p.explain_ns /. 1e3 /. float_of_int (max 1 p.explained));
          scalar "alerts.incidents" "count" (float_of_int (List.length incidents));
          scalar "alerts.latency_p50_us" "us" (Stats.quantile 0.5 latencies);
          scalar "alerts.latency_p99_us" "us" (Stats.quantile 0.99 latencies);
          scalar "alerts.latency_samples" "count" (float_of_int (Array.length latencies));
          scalar "qsig.checks" "count" (float_of_int p.qsig_checks);
          scalar "qsig.check_ns_per_query" "ns" (p.qsig_ns /. float_of_int (max 1 p.qsig_checks));
          scalar "qsig.memo_hit_rate" "frac" p.qsig_hit_rate;
          scalar "qsig.anomalies" "count" (float_of_int p.qsig_anomalies);
          scalar "frame.encode_ns_per_item" "ns" p.encode_ns;
          scalar "frame.decode_ns_per_item" "ns" p.decode_ns;
          scalar "frame.bytes_per_item" "B" p.bytes_per_item;
          metric "router.send_s" "s" (on_tcp (fun r -> r.send_s));
          metric "router.finish_s" "s" (on_tcp (fun r -> r.finish_s));
          metric "tcp.router_cpu_ns_per_event" "ns"
            (on_tcp (fun r -> (r.cpu_s -. r.node_cpu_s) *. 1e9 /. calls));
          metric "tcp.node_cpu_ns_per_event" "ns" (on_tcp (fun r -> r.node_cpu_s *. 1e9 /. calls));
          metric "gc.minor_words_per_event" "words" (List.map (fun r -> r.minor_words /. calls) reps);
          metric "gc.major_collections" "count"
            (List.map (fun r -> float_of_int r.major_collections) reps);
          scalar "gen.late_p99_us" "us" late_p99;
          scalar "gen.late_max_us" "us" late_max;
          scalar "stack.sum_ns_per_event" "ns" sum;
          scalar "stack.unexplained_ns_per_event" "ns" (wall_ns -. sum);
          scalar "trace.overhead_frac" "frac" (1. -. (rep_rate traced_reps /. rep_rate reps));
          scalar "failed_frac" "frac" (float_of_int failed /. float_of_int (max 1 attempted));
        ]
      in
      (stack, layer, [ Check.gate "frame round trip" p.roundtrip "binary frames, every item" ])
    end
  in
  let gates = gates @ probe_gates in
  (match trace_file with Some f when trace -> Span.write_chrome f | _ -> ());
  {
    workload = W.to_string w;
    seed;
    seconds;
    traced = trace;
    gates;
    validity;
    attempted;
    failed;
    e2e;
    layer;
    stack;
    wall_ns;
    self_times;
    flush_windows = List.fold_left (fun a (r : rep) -> a + r.flush_incidents) 0 reps;
  }
