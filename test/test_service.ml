(* Tests for the online monitoring daemon (Adprom_service): wire codec
   round-trips and error reporting, incremental scoring vs the batch
   detection loop, shed accounting under overload, shard determinism,
   the metrics registry and the unified incident log — plus QCheck
   properties for Core.Sessions (demux inverts interleave; per-session
   windowing equals per-trace windowing; interleave draws as the
   per-event reference does). *)

module Transport = Adprom_service.Transport
module Metrics = Adprom_service.Metrics
module Alerts = Adprom_service.Alerts
module Daemon = Adprom_service.Daemon
module Replay = Adprom_service.Replay
module Detector = Adprom.Detector
module Scoring = Adprom.Scoring
module Profile = Adprom.Profile
module Pipeline = Adprom.Pipeline
module Sessions = Adprom.Sessions
module Window = Adprom.Window
module Symbol = Analysis.Symbol

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  if nl = 0 then true
  else begin
    let found = ref false in
    for i = 0 to hl - nl do
      if (not !found) && String.sub hay i nl = needle then found := true
    done;
    !found
  end

(* --- shared fixture: a small trained profile and its traces ---------------- *)

let fixture =
  lazy
    (let app =
       {
         Pipeline.name = "svc";
         source =
           {|
             fun main() {
               let db = db_connect("pg");
               let n = atoi(gets());
               for (let i = 0; i < n; i = i + 1) {
                 let r = pq_exec(db, "SELECT name FROM t");
                 let k = pq_ntuples(r);
                 for (let j = 0; j < k; j = j + 1) { printf("%s\n", pq_getvalue(r, j, 0)); }
               }
             }
           |};
         dbms = "PostgreSQL";
         setup_db =
           (fun e ->
             ignore (Sqldb.Engine.exec e "CREATE TABLE t (name)");
             ignore (Sqldb.Engine.exec e "INSERT INTO t VALUES ('a'), ('b')"));
         test_cases =
           List.init 8 (fun i ->
               Runtime.Testcase.make
                 ~input:[ string_of_int (1 + (i mod 4)) ]
                 (Printf.sprintf "c%d" i));
       }
     in
     let ds = Pipeline.collect app in
     (ds, Pipeline.train ds))

let traces () =
  let ds, _ = Lazy.force fixture in
  List.map snd ds.Pipeline.traces

let profile () = snd (Lazy.force fixture)

let interleaved seed =
  let rng = Mlkit.Rng.create seed in
  Sessions.interleave ~rng (traces ())

let calls stream = Array.map (fun ev -> Transport.Call ev) stream

(* a fresh daemon over a pure call-event stream *)
let replay ?shards ?queue_capacity profile stream =
  Replay.run (Daemon.create ?shards ?queue_capacity profile) (calls stream)

(* --- codec ----------------------------------------------------------------- *)

(* the text line format over call events only *)
let encode stream = Transport.encode_all (module Transport.Text) (calls stream)

let decode text =
  Result.map
    (fun items ->
      Array.of_list
        (List.filter_map
           (function Transport.Call ev -> Some ev | Transport.Query _ -> None)
           (Array.to_list items)))
    (Transport.decode_all (module Transport.Text) text)

let mk_event ?(label = None) ?(site = None) ?(caller = "main") ?(block = 3) name =
  {
    Runtime.Collector.symbol = Symbol.Lib { name; label; site };
    caller;
    block;
  }

let test_codec_roundtrip () =
  let stream =
    [|
      { Transport.session = 0; event = mk_event "read" };
      { Transport.session = 7; event = mk_event ~label:(Some 4) ~site:(Some 9) "pq_getvalue" };
      { Transport.session = 0; event = { Runtime.Collector.symbol = Symbol.Entry; caller = "f"; block = -1 } };
      { Transport.session = 12; event = { Runtime.Collector.symbol = Symbol.Func "helper"; caller = "g"; block = 2 } };
    |]
  in
  match decode (encode stream) with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok stream' ->
      Alcotest.(check int) "length" (Array.length stream) (Array.length stream');
      Array.iteri
        (fun i ev -> Alcotest.(check bool) "event equal" true (ev = stream'.(i)))
        stream

let test_codec_roundtrip_real_stream () =
  let stream = interleaved 11 in
  match decode (encode stream) with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok stream' -> Alcotest.(check bool) "identical" true (stream = stream')

(* The text decoder's event cache, as for the binary one in
   test_cluster. *)
let test_text_cache_bounded () =
  Event_sharing.check_bounded (module Transport.Text) ~max_words:150

let test_text_repeats_shared () =
  Event_sharing.check_repeats_shared (module Transport.Text) (calls (interleaved 11))

let expect_error_line n text =
  match decode text with
  | Ok _ -> Alcotest.failf "expected a parse error for %S" text
  | Error e ->
      let prefix = Printf.sprintf "line %d:" n in
      Alcotest.(check bool)
        (Printf.sprintf "error %S names line %d" e n)
        true
        (String.length e >= String.length prefix
        && String.sub e 0 (String.length prefix) = prefix)

let test_codec_errors () =
  let good =
    Transport.Text.encode_line
      (Transport.Call { Transport.session = 1; event = mk_event "read" })
  in
  (* bad session id *)
  expect_error_line 1 "x\tmain\t3\tlib:read:-:-";
  (* negative session id *)
  expect_error_line 1 "-2\tmain\t3\tlib:read:-:-";
  (* truncated fields *)
  expect_error_line 2 (good ^ "\n1\tmain\t3");
  (* bad block id *)
  expect_error_line 3 (good ^ "\n" ^ good ^ "\n1\tmain\tx\tlib:read:-:-");
  (* bad symbol *)
  expect_error_line 1 "1\tmain\t3\tnonsense";
  (* blank lines and comments are fine and keep line numbering honest *)
  (match decode ("# header\n\n" ^ good ^ "\n\n") with
  | Ok s -> Alcotest.(check int) "one event" 1 (Array.length s)
  | Error e -> Alcotest.failf "unexpected error: %s" e);
  expect_error_line 4 ("# header\n\n" ^ good ^ "\nbroken")

let test_trace_io_errors () =
  let check_err needle text =
    match Runtime.Trace_io.of_string text with
    | Ok _ -> Alcotest.failf "expected failure on %S" text
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%S mentions %S" e needle)
          true
          (contains ~needle e)
  in
  (* truncated fields *)
  check_err "line 1" "main\t3";
  (* bad block id *)
  check_err "bad block id" "main\tnine\tlib:read:-:-";
  check_err "line 2" "main\t3\tlib:read:-:-\nmain\tnine\tlib:read:-:-";
  (* bad symbol *)
  check_err "line 1" "main\t3\twhat";
  (* trailing newlines / CRLF are tolerated *)
  (match Runtime.Trace_io.of_string "main\t3\tlib:read:-:-\r\n\n\n" with
  | Ok t -> Alcotest.(check int) "one event" 1 (Array.length t)
  | Error e -> Alcotest.failf "unexpected error: %s" e);
  (* empty input is an empty trace, not an error *)
  match Runtime.Trace_io.of_string "" with
  | Ok t -> Alcotest.(check int) "empty" 0 (Array.length t)
  | Error e -> Alcotest.failf "unexpected error: %s" e

(* --- scorer vs batch -------------------------------------------------------- *)

let test_scorer_matches_batch () =
  let profile = profile () in
  List.iter
    (fun trace ->
      let batch = List.map snd (Detector.monitor profile trace) in
      let stream = Scoring.Stream.create (Scoring.of_profile profile) in
      let live = ref [] in
      Array.iter
        (fun e ->
          match Scoring.Stream.push stream e with
          | Ok (Some v) -> live := v :: !live
          | Ok None -> ()
          | Error e -> Alcotest.failf "push rejected: %s" e)
        trace;
      (match Scoring.Stream.flush stream with
      | Some v -> live := v :: !live
      | None -> ());
      let live = List.rev !live in
      Alcotest.(check int) "window count" (List.length batch) (List.length live);
      List.iter2
        (fun (b : Detector.verdict) (l : Detector.verdict) ->
          Alcotest.(check bool) "same flag" true (b.Detector.flag = l.Detector.flag);
          Alcotest.(check bool) "same score" true
            (b.Detector.score = l.Detector.score
            || (Float.is_nan b.Detector.score && Float.is_nan l.Detector.score)))
        batch live)
    (traces ())

let test_scorer_short_trace () =
  let profile = profile () in
  let trace = Array.init 4 (fun i -> mk_event (Printf.sprintf "s%d" i)) in
  let stream = Scoring.Stream.create (Scoring.of_profile profile) in
  let scored =
    Array.fold_left
      (fun n e ->
        match Scoring.Stream.push stream e with Ok (Some _) -> n + 1 | _ -> n)
      0 trace
  in
  Alcotest.(check int) "no window before flush" 0 scored;
  (match Scoring.Stream.flush stream with
  | Some _ -> ()
  | None -> Alcotest.fail "short trace must yield its whole-trace window at flush");
  (* flush is idempotent *)
  Alcotest.(check bool) "idempotent" true (Scoring.Stream.flush stream = None);
  (* the daemon's per-session report counts that one window at drain *)
  let outcome =
    replay ~shards:1 profile
      (Array.map (fun event -> { Transport.session = 7; event }) trace)
  in
  match outcome.Replay.summary.Daemon.sessions with
  | [ r ] ->
      Alcotest.(check int) "events" 4 r.Daemon.events;
      Alcotest.(check int) "one window" 1 r.Daemon.windows;
      Alcotest.(check int) "one verdict kept" 1 (List.length r.Daemon.verdicts)
  | rs -> Alcotest.failf "expected one session report, got %d" (List.length rs)

let test_scorer_push_after_flush () =
  let profile = profile () in
  let stream = Scoring.Stream.create (Scoring.of_profile profile) in
  (match Scoring.Stream.push stream (mk_event "read") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "live push rejected: %s" e);
  ignore (Scoring.Stream.flush stream);
  (* the protocol slip is a soft error the daemon can count, never an
     exception that would take the whole shard down *)
  match Scoring.Stream.push stream (mk_event "read") with
  | Error msg ->
      Alcotest.(check bool) "error names the flush" true (contains ~needle:"flush" msg);
      Alcotest.(check int) "rejected event not counted" 1
        (Scoring.Stream.events_seen stream)
  | Ok _ -> Alcotest.fail "push after flush must return Error"

(* --- daemon ------------------------------------------------------------------ *)

let test_daemon_matches_batch () =
  let profile = profile () in
  let stream = interleaved 23 in
  let outcome = replay ~shards:3 profile stream in
  let summary = outcome.Replay.summary in
  Alcotest.(check int) "nothing shed" 0 (List.length summary.Daemon.shed);
  Alcotest.(check int) "all ingested"
    (Array.length stream)
    summary.Daemon.events_ingested;
  Alcotest.(check int) "session count"
    (List.length (traces ()))
    (List.length summary.Daemon.sessions);
  let mismatches = Replay.verify_against_batch profile stream summary in
  if mismatches <> [] then
    Alcotest.failf "daemon diverged from batch: %s"
      (String.concat "; " (List.map Replay.mismatch_to_string mismatches))

let test_daemon_shard_determinism () =
  let profile = profile () in
  let stream = interleaved 5 in
  let flags outcome =
    List.map
      (fun (r : Daemon.session_report) ->
        (r.Daemon.session, List.map (fun v -> v.Detector.flag) r.Daemon.verdicts))
      outcome.Replay.summary.Daemon.sessions
  in
  let a = replay ~shards:4 profile stream in
  let b = replay ~shards:4 profile stream in
  let c = replay ~shards:1 profile stream in
  Alcotest.(check bool) "same shards, same verdicts" true (flags a = flags b);
  Alcotest.(check bool) "shard count does not change verdicts" true (flags a = flags c)

let test_daemon_sheds_whole_sessions () =
  let profile = profile () in
  let stream = interleaved 7 in
  (* capacity 0: every admission overflows, so every session is shed on
     its first event and every single event must be counted as dropped *)
  let outcome = replay ~shards:2 ~queue_capacity:0 profile stream in
  let summary = outcome.Replay.summary in
  Alcotest.(check int) "no survivors" 0 (List.length summary.Daemon.sessions);
  Alcotest.(check int) "every session shed"
    (List.length (traces ()))
    (List.length summary.Daemon.shed);
  Alcotest.(check int) "every event dropped"
    (Array.length stream)
    summary.Daemon.events_dropped;
  Alcotest.(check int) "nothing ingested" 0 summary.Daemon.events_ingested;
  let counted =
    List.fold_left (fun acc (_, dropped, _) -> acc + dropped) 0 summary.Daemon.shed
  in
  Alcotest.(check int) "per-session drops add up" (Array.length stream) counted;
  (* the drop counters agree with the summary *)
  let m = Metrics.dump outcome.Replay.metrics in
  Alcotest.(check bool) "dropped counter in dump" true
    (contains
       ~needle:(Printf.sprintf "adprom_events_dropped_total %d" (Array.length stream))
       m)

let test_daemon_conservation_under_pressure () =
  let profile = profile () in
  let stream = interleaved 13 in
  (* tiny queues: whether a given session survives depends on worker
     timing, but accounting must balance exactly either way *)
  let outcome = replay ~shards:2 ~queue_capacity:1 profile stream in
  let summary = outcome.Replay.summary in
  Alcotest.(check int) "offered = ingested + dropped"
    summary.Daemon.events_offered
    (summary.Daemon.events_ingested + summary.Daemon.events_dropped);
  Alcotest.(check int) "offered = stream size"
    (Array.length stream)
    summary.Daemon.events_offered;
  (* every event of a surviving session was scored or buffered; every
     shed session's events are in its shed entry *)
  let surviving =
    List.fold_left (fun acc (r : Daemon.session_report) -> acc + r.Daemon.events) 0
      summary.Daemon.sessions
  in
  let shed_events =
    List.fold_left
      (fun acc (_, dropped, discarded) -> acc + dropped + discarded)
      0 summary.Daemon.shed
  in
  Alcotest.(check int) "no event unaccounted"
    (Array.length stream)
    (surviving + shed_events);
  (* shed sessions never report verdicts *)
  List.iter
    (fun (s, _, _) ->
      Alcotest.(check bool) "shed session absent from reports" true
        (not
           (List.exists
              (fun (r : Daemon.session_report) -> r.Daemon.session = s)
              summary.Daemon.sessions)))
    summary.Daemon.shed

(* --- metrics ----------------------------------------------------------------- *)

(* A gauge's [(name, value, high-watermark)] in a snapshot of [m]. *)
let gauge_reading m name =
  List.find (fun (n, _, _) -> n = name) (Metrics.snapshot m).Metrics.gauges

let test_metrics_registry () =
  let m = Metrics.create () in
  let c = Metrics.counter m "requests_total" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value c);
  Alcotest.(check bool) "get-or-create returns the same counter" true
    (Metrics.counter_value (Metrics.counter m "requests_total") = 5);
  let g = Metrics.gauge m "depth" in
  Metrics.set_gauge g 7;
  Metrics.set_gauge g 3;
  let _, value, high = gauge_reading m "depth" in
  Alcotest.(check int) "gauge holds last value" 3 value;
  Alcotest.(check int) "gauge high-watermark" 7 high;
  let h = Metrics.histogram ~buckets:[| 0.1; 1.0 |] m "lat" in
  List.iter (Metrics.observe h) [ 0.05; 0.05; 0.5; 5.0 ];
  Alcotest.(check int) "histogram count" 4
    (Option.get (Metrics.snapshot_histogram (Metrics.snapshot m) "lat")).Metrics.hs_count;
  let hs = Option.get (Metrics.snapshot_histogram (Metrics.snapshot m) "lat") in
  Alcotest.(check (float 1e-9)) "p50 bucket" 0.1 (Metrics.hist_quantile hs 0.5);
  Alcotest.(check bool) "p99 overflows" true (Metrics.hist_quantile hs 0.99 = infinity);
  let dump = Metrics.dump m in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "dump has %S" needle)
        true
        (contains ~needle dump))
    [
      "# TYPE requests_total counter";
      "requests_total 5";
      "# TYPE depth gauge";
      "depth 3";
      "depth_max 7";
      "# TYPE lat histogram";
      "lat_bucket{le=\"0.1\"} 2";
      "lat_bucket{le=\"1\"} 3";
      "lat_bucket{le=\"+Inf\"} 4";
      "lat_count 4";
    ];
  (* name collisions across types are programming errors *)
  Alcotest.check_raises "type clash"
    (Invalid_argument "Metrics: \"depth\" registered with another type") (fun () ->
      ignore (Metrics.counter m "depth"))

let test_metrics_dump_sorted_golden () =
  (* registration order is scrambled on purpose: the dump must come out
     sorted by name, and byte-identical to this golden copy *)
  let m = Metrics.create () in
  let c = Metrics.counter m "z_total" in
  Metrics.incr ~by:2 c;
  let g = Metrics.gauge m "a_depth" in
  Metrics.set_gauge g 5;
  Metrics.set_gauge g 2;
  let h = Metrics.histogram ~buckets:[| 0.1; 1.0 |] m "m_lat" in
  Metrics.observe h 0.05;
  Metrics.observe h 10.0;
  let expected =
    "# HELP a_depth a_depth\n\
     # TYPE a_depth gauge\n\
     a_depth 2\n\
     # HELP a_depth_max a_depth_max\n\
     # TYPE a_depth_max gauge\n\
     a_depth_max 5\n\
     # HELP m_lat m_lat\n\
     # TYPE m_lat histogram\n\
     m_lat_bucket{le=\"0.1\"} 1\n\
     m_lat_bucket{le=\"1\"} 1\n\
     m_lat_bucket{le=\"+Inf\"} 2\n\
     m_lat_sum 10.05\n\
     m_lat_count 2\n\
     # HELP z_total z_total\n\
     # TYPE z_total counter\n\
     z_total 2\n"
  in
  Alcotest.(check string) "golden sorted dump" expected (Metrics.dump m)

(* The worker observes two histograms per event: with a constant
   argument (no boxing at the call), an observation allocates nothing. *)
let test_observe_allocates_nothing () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  let calls = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    Metrics.observe h 2e-4
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words over %d calls, under 1 per call" words calls)
    true
    (words < float_of_int calls);
  Alcotest.(check int) "every call counted" calls
    (Option.get (Metrics.snapshot_histogram (Metrics.snapshot m) "lat")).Metrics.hs_count

let test_render_merged_snapshots () =
  (* the fleet view: two nodes' snapshots merged, then rendered like a
     node's dump — gauges and watermarks take the max, counters and
     histogram buckets add *)
  let snap ~depth ~hwm ~buckets ~sum =
    {
      Metrics.counters = [ ("c_total", 3) ];
      gauges = [ ("g_depth", depth, hwm) ];
      histograms =
        [
          {
            Metrics.hs_name = "h_lat";
            hs_bounds = [| 0.1; 1.0 |];
            hs_buckets = buckets;
            hs_sum = sum;
            hs_count = Array.fold_left ( + ) 0 buckets;
          };
        ];
    }
  in
  let merged =
    Metrics.merge_snapshots
      [
        snap ~depth:2 ~hwm:9 ~buckets:[| 1; 0; 1 |] ~sum:5.05;
        snap ~depth:4 ~hwm:3 ~buckets:[| 0; 2; 0 |] ~sum:1.0;
      ]
  in
  let expected =
    "# HELP c_total c_total\n\
     # TYPE c_total counter\n\
     c_total 6\n\
     # HELP g_depth g_depth\n\
     # TYPE g_depth gauge\n\
     g_depth 4\n\
     # HELP g_depth_max g_depth_max\n\
     # TYPE g_depth_max gauge\n\
     g_depth_max 9\n\
     # HELP h_lat h_lat\n\
     # TYPE h_lat histogram\n\
     h_lat_bucket{le=\"0.1\"} 1\n\
     h_lat_bucket{le=\"1\"} 3\n\
     h_lat_bucket{le=\"+Inf\"} 4\n\
     h_lat_sum 6.05\n\
     h_lat_count 4\n"
  in
  Alcotest.(check string) "merged rendering" expected (Metrics.render merged)

let test_gauge_max_two_domains () =
  (* two domains hammer the same gauge; the lock-free CAS loop must
     leave the high-watermark at exactly the largest value either
     domain ever set, regardless of interleaving *)
  let m = Metrics.create () in
  let g = Metrics.gauge m "stress_depth" in
  let per_domain = 20_000 in
  let value k i = (i * 7) + k land 0xffff in
  let worker k () =
    for i = 0 to per_domain - 1 do
      Metrics.set_gauge g (value k i)
    done
  in
  let d1 = Domain.spawn (worker 1) and d2 = Domain.spawn (worker 2) in
  Domain.join d1;
  Domain.join d2;
  let expected = ref min_int in
  List.iter
    (fun k ->
      for i = 0 to per_domain - 1 do
        if value k i > !expected then expected := value k i
      done)
    [ 1; 2 ];
  let _, v, high = gauge_reading m "stress_depth" in
  Alcotest.(check int) "watermark = global max" !expected high;
  Alcotest.(check bool) "last value is one of the writers' finals" true
    (v = value 1 (per_domain - 1) || v = value 2 (per_domain - 1))

(* --- alerts ------------------------------------------------------------------ *)

let test_alert_sink () =
  let now = ref 0.0 in
  let sink = Alerts.create ~clock:(fun () -> !now) () in
  let verdict flag =
    { Detector.flag; score = -1.0; unknown_symbol = false; unknown_pair = None }
  in
  now := 1.0;
  Alcotest.(check bool) "data leak recorded" true
    (Alerts.record_verdict sink ~session:3 ~window_index:0 (verdict Detector.Data_leak));
  now := 2.0;
  Alcotest.(check bool) "normal not recorded" false
    (Alerts.record_verdict sink ~session:1 ~window_index:4 (verdict Detector.Normal));
  Alcotest.(check bool) "anomalous not recorded" false
    (Alerts.record_verdict sink ~session:1 ~window_index:4 (verdict Detector.Anomalous));
  Alerts.record_finding sink ~session:1
    (Adprom.Audit.Tainted_file_command { path = "/tmp/x"; command = "curl" });
  now := 3.0;
  Alcotest.(check bool) "out of context recorded" true
    (Alerts.record_verdict sink ~session:2 ~window_index:9
       (verdict Detector.Out_of_context));
  Alerts.record_finding sink ~session:2 (Adprom.Audit.Unknown_query_signature "sig");
  let incidents = Alerts.incidents sink in
  Alcotest.(check int) "four incidents" 4 (List.length incidents);
  Alcotest.(check (list int)) "timestamp order"
    [ 0; 1; 2; 3 ]
    (List.map (fun (i : Alerts.incident) -> i.Alerts.seq) incidents);
  Alcotest.(check (list int)) "sessions in record order"
    [ 3; 1; 2; 2 ]
    (List.map (fun (i : Alerts.incident) -> i.Alerts.session) incidents);
  (* both channels appear in the printed log *)
  let log = Alerts.to_string sink in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "log mentions %S" needle)
        true
        (contains ~needle log))
    [ "data-leak"; "out-of-context"; "/tmp/x"; "sig" ]

let test_alert_explanation_rendered () =
  let sink = Alerts.create () in
  let v =
    {
      Detector.flag = Detector.Data_leak;
      score = neg_infinity;
      unknown_symbol = true;
      unknown_pair = None;
    }
  in
  let expl =
    {
      Adprom.Scoring.gate = Adprom.Scoring.Unknown_symbol;
      verdict = v;
      exp_threshold = -1.5;
      margin = infinity;
      top =
        [
          {
            Adprom.Scoring.position = 2;
            symbol = Symbol.lib "evil0";
            caller = "intruder";
            surprisal = infinity;
          };
        ];
    }
  in
  Alcotest.(check bool) "recorded" true
    (Alerts.record_verdict ~explanation:expl sink ~session:7 ~window_index:3 v);
  let log = Alerts.to_string sink in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "rendered incident mentions %S" needle)
        true
        (contains ~needle log))
    [ "gate=unknown-symbol"; "margin=inf"; "intruder"; "evil0@2" ];
  (* without an explanation the bracketed suffix must not appear *)
  let bare = Alerts.create () in
  ignore (Alerts.record_verdict bare ~session:1 ~window_index:0 v);
  Alcotest.(check bool) "no explanation, no brackets" false
    (contains ~needle:"gate=" (Alerts.to_string bare))

let test_daemon_feeds_alerts () =
  let profile = profile () in
  (* a stream of library calls the profile has never seen must raise
     alarms and land in the incident log *)
  let foreign =
    Array.init 20 (fun i ->
        { Transport.session = 0; event = mk_event ~caller:"intruder" (Printf.sprintf "evil%d" (i mod 3)) })
  in
  let outcome = replay ~shards:1 profile foreign in
  Alcotest.(check bool) "incidents recorded" true (Alerts.count outcome.Replay.alerts > 0);
  let worst =
    List.map
      (fun (r : Daemon.session_report) -> r.Daemon.worst)
      outcome.Replay.summary.Daemon.sessions
  in
  Alcotest.(check bool) "session flagged" true
    (List.exists (fun f -> f = Detector.Out_of_context || f = Detector.Data_leak) worst)

(* A literal wider than an OCaml int must not escape the SQL lexer as
   [Failure "int_of_string"]: that kills the shard checking it, so one
   hostile wire item would take a worker down. It is a Malformed query
   anomaly, on the learn path too. *)
let test_daemon_oversize_literal () =
  let probe = "SELECT name FROM clients WHERE id = 99999999999999999999" in
  let qprofile = Adprom_qsig.Profile.create () in
  Adprom_qsig.Profile.learn qprofile "SELECT name FROM t";
  Adprom_qsig.Profile.learn qprofile probe;
  Alcotest.(check int) "learn counts it malformed" 1
    (Adprom_qsig.Profile.malformed_count qprofile);
  let session = 3 in
  let items =
    Array.append
      (Array.map
         (fun event -> Transport.Call { Transport.session; event })
         (List.hd (traces ())))
      [| Transport.Query { Transport.q_session = session; rows = 1; sql = probe } |]
  in
  let outcome =
    Replay.run
      (Daemon.create ~shards:1 ~qsig_mode:Daemon.Qsig_warn ~qsig_profile:qprofile
         (profile ()))
      items
  in
  let report =
    List.find
      (fun (r : Daemon.session_report) -> r.Daemon.session = session)
      outcome.Replay.summary.Daemon.sessions
  in
  Alcotest.(check int) "query checked" 1 report.Daemon.qsig_checks;
  Alcotest.(check int) "query anomalous" 1 report.Daemon.qsig_anomalies;
  Alcotest.(check bool) "incident names a Malformed reason" true
    (List.exists
       (function
         | { Alerts.source = Alerts.Query_verdict { sql; verdict; _ }; _ } ->
             sql = probe
             && List.exists
                  (function Adprom_qsig.Engine.Malformed _ -> true | _ -> false)
                  verdict.Adprom_qsig.Engine.reasons
         | _ -> false)
       (Alerts.incidents outcome.Replay.alerts))

let test_daemon_explains_incidents () =
  let profile = profile () in
  let foreign =
    Array.init 20 (fun i ->
        { Transport.session = 0; event = mk_event ~caller:"intruder" (Printf.sprintf "evil%d" (i mod 3)) })
  in
  let outcome = replay ~shards:2 profile foreign in
  let verdict_incidents =
    List.filter
      (fun (i : Alerts.incident) ->
        match i.Alerts.source with Alerts.Verdict _ -> true | _ -> false)
      (Alerts.incidents outcome.Replay.alerts)
  in
  Alcotest.(check bool) "verdict incidents present" true (verdict_incidents <> []);
  (* every anomalous incident carries an explanation naming the gate —
     here the foreign symbols make that gate unknown-symbol *)
  List.iter
    (fun (i : Alerts.incident) ->
      match i.Alerts.source with
      | Alerts.Verdict { explanation = None; _ } ->
          Alcotest.fail "verdict incident without explanation"
      | Alerts.Verdict { explanation = Some e; _ } ->
          Alcotest.(check bool) "gate is unknown-symbol" true
            (e.Adprom.Scoring.gate = Adprom.Scoring.Unknown_symbol);
          Alcotest.(check bool) "incident names the gate" true
            (contains ~needle:"gate=unknown-symbol" (Alerts.source_to_string i.Alerts.source))
      | _ -> ())
    verdict_incidents;
  (* the incidents also landed on the shard event rings and surface in
     the outcome's tail *)
  Alcotest.(check bool) "events tail non-empty" true
    (outcome.Replay.events_tail <> []);
  Alcotest.(check bool) "tail records the incidents" true
    (List.exists
       (fun (e : Adprom_obs.Log.event) ->
         e.Adprom_obs.Log.message = "incident" && e.Adprom_obs.Log.level = Adprom_obs.Log.Warn)
       outcome.Replay.events_tail)

(* Explaining an incident must not score its window a second time: one
   out-of-context window is one window, one memo miss and no hit. *)
let test_explain_counts_window_once () =
  let profile = profile () in
  let window = profile.Profile.params.Profile.window in
  let trace = List.hd (traces ()) in
  let items =
    Array.map
      (fun (ev : Runtime.Collector.event) ->
        Transport.Call
          { Transport.session = 0; event = { ev with Runtime.Collector.caller = "intruder" } })
      (Array.sub trace 0 (min window (Array.length trace)))
  in
  let outcome = Replay.run (Daemon.create ~shards:1 profile) items in
  let counter name = Metrics.counter_value (Metrics.counter outcome.Replay.metrics name) in
  Alcotest.(check int) "one incident" 1 (Alerts.count outcome.Replay.alerts);
  Alcotest.(check int) "windows" 1 (counter "adprom_windows_scored_total");
  Alcotest.(check int) "memo hits" 0 (counter "adprom_score_cache_hits_total");
  Alcotest.(check int) "memo misses" 1 (counter "adprom_score_cache_misses_total")

(* --- Core.Sessions properties ------------------------------------------------ *)

let event_gen =
  QCheck2.Gen.(
    let symbol =
      oneof
        [
          map (fun n -> Symbol.lib (Printf.sprintf "f%d" n)) (int_bound 5);
          map
            (fun n ->
              Symbol.Lib { name = Printf.sprintf "q%d" n; label = Some n; site = None })
            (int_bound 3);
        ]
    in
    map2
      (fun sym c ->
        { Runtime.Collector.symbol = sym; caller = Printf.sprintf "c%d" c; block = c })
      symbol (int_bound 4))

let traces_gen =
  QCheck2.Gen.(
    list_size (int_range 1 5)
      (map Array.of_list (list_size (int_range 0 20) event_gen)))

let print_traces ts =
  String.concat " | "
    (List.map (fun t -> Printf.sprintf "%d events" (Array.length t)) ts)

let prop_demux_inverts_interleave =
  QCheck2.Test.make ~name:"demux (interleave traces) recovers every trace" ~count:200
    ~print:print_traces traces_gen (fun traces ->
      let rng = Mlkit.Rng.create 99 in
      let host = Sessions.interleave ~rng traces in
      let demuxed = Sessions.demux host in
      (* demux drops empty traces (they contribute no events); surviving
         sessions must come back verbatim under their original index *)
      List.for_all
        (fun (s, trace) -> trace = List.nth traces s)
        demuxed
      && List.length demuxed
         = List.length (List.filter (fun t -> Array.length t > 0) traces)
      && Array.length host = List.fold_left (fun a t -> a + Array.length t) 0 traces)

let prop_windows_per_session =
  QCheck2.Test.make ~name:"windows_per_session = per-trace windowing" ~count:200
    ~print:print_traces traces_gen (fun traces ->
      let rng = Mlkit.Rng.create 7 in
      let host = Sessions.interleave ~rng traces in
      let via_sessions = Sessions.windows_per_session ~window:4 host in
      let direct =
        List.concat_map
          (fun (_, trace) -> Window.of_trace ~window:4 trace)
          (Sessions.demux host)
      in
      via_sessions = direct)

(* [Sessions.interleave] as it stood: the live sessions rebuilt, as a
   descending list and then an array, for every event drawn — O(E·S).
   The linear version must draw the same sessions in the same order. *)
let reference_interleave ~rng traces =
  let queues = Array.of_list (List.map (fun t -> (ref 0, t)) traces) in
  let live () =
    let alive = ref [] in
    Array.iteri
      (fun i (pos, t) -> if !pos < Array.length t then alive := i :: !alive)
      queues;
    !alive
  in
  let out = ref [] in
  let rec loop () =
    match live () with
    | [] -> ()
    | alive ->
        let arr = Array.of_list alive in
        let i = arr.(Mlkit.Rng.int rng (Array.length arr)) in
        let pos, t = queues.(i) in
        out := { Sessions.session = i; event = t.(!pos) } :: !out;
        incr pos;
        loop ()
  in
  loop ();
  Array.of_list (List.rev !out)

let prop_interleave_matches_reference =
  QCheck2.Test.make ~name:"interleave = per-event rebuild reference" ~count:300
    ~print:(fun (seed, ts) -> Printf.sprintf "seed %d: %s" seed (print_traces ts))
    QCheck2.Gen.(
      pair (int_bound 1_000_000)
        (list_size (int_range 0 12)
           (map Array.of_list (list_size (int_range 0 20) event_gen))))
    (fun (seed, traces) ->
      let r = Mlkit.Rng.create seed and r' = Mlkit.Rng.create seed in
      Sessions.interleave ~rng:r traces = reference_interleave ~rng:r' traces
      (* one draw per event on both sides: the generators end level *)
      && Mlkit.Rng.int r 1_000_000 = Mlkit.Rng.int r' 1_000_000)

(* --- a node in process: Server.Conn under a simulated loop ---------------- *)

module Server = Adprom_service.Server
module Frame = Adprom_service.Frame
module Cluster = Adprom_service.Cluster
module Conn = Server.Conn

type wire = Bin | Txt | Web

let wire_name = function Bin -> "binary" | Txt -> "text" | Web -> "http"

(* One simulated peer: the bytes it would send, where each of its items
   ends in them, and what it has read back. *)
type peer = {
  kind : wire;
  conn : Conn.t;
  input : string;
  cut : int;  (* bytes sent before the peer hangs up, or stops *)
  ends : (int * Transport.item) array;  (* item's last byte + 1, send order *)
  reads : bool;
  mutable fed : int;
  mutable hung_up : bool;
  mutable whole_at_feed_end : int list;
  recv : Buffer.t;
}

(* A hello, then [items] and [tail] as frames: the bytes, and where each
   item's frame ends in them. *)
let binary_input items ~tail =
  let enc = Frame.Encoder.create () and buf = Buffer.create 4096 in
  let add f =
    Frame.Encoder.add enc buf f;
    Frame.Encoder.flush enc buf;
    Buffer.length buf
  in
  ignore (add (Frame.Hello { peer = "sim"; sample = None }));
  let ends =
    Array.map
      (fun it ->
        (add (match it with Transport.Call ev -> Frame.Call ev | Transport.Query q -> Frame.Query q), it))
      items
  in
  List.iter (fun f -> ignore (add f)) tail;
  (Buffer.contents buf, ends)

let text_input items =
  let buf = Buffer.create 4096 in
  let ends =
    Array.map
      (fun it ->
        Buffer.add_string buf (Transport.Text.encode_line it);
        Buffer.add_char buf '\n';
        (Buffer.length buf, it))
      items
  in
  (Buffer.contents buf, ends)

let whole p upto = Array.fold_left (fun n (e, _) -> if e <= upto then n + 1 else n) 0 p.ends

(* The node's name is 4,096 bytes, so each hello it answers is one
   reply of [hello_reply] bytes, and 256 pipelined hellos pass the cap:
   the never-read connection sends [n]. *)
let sim_name = String.make 4096 'n'
let hellos =
  let hello = lazy (fst (binary_input [||] ~tail:[])) in
  fun n -> String.concat "" (List.init n (fun _ -> Lazy.force hello))

let hello_reply =
  let buf = Buffer.create 8192 and enc = Frame.Encoder.create () in
  Frame.Encoder.add enc buf (Frame.Hello { peer = sim_name; sample = Some (0L, 0L) });
  Frame.Encoder.flush enc buf;
  Buffer.length buf

(* 64 sessions, each a fixture trace run back to back until it is about
   50 calls long, interleaved, each call followed by two executed
   queries. The query axis is off, so queries cost the daemon nothing,
   yet they count as ingested items: a connection carrying the whole
   stream (about 10,000 items) is acked. *)
let sim_items =
  lazy
    (let traces = Array.of_list (traces ()) in
     let session i =
       let t = traces.(i mod Array.length traces) in
       Array.concat (List.init (1 + (50 / Array.length t)) (fun _ -> t))
     in
     let host = Sessions.interleave ~rng:(Mlkit.Rng.create 3) (List.init 64 session) in
     Array.of_list
       (List.concat_map
          (fun (ev : Transport.event) ->
            let q rows =
              Transport.Query { Transport.q_session = ev.Transport.session; rows; sql = "SELECT name FROM t" }
            in
            [ Transport.Call ev; q 0; q 1 ])
          (Array.to_list host)))

(* a lone binary connection carries the whole stream *)
let sim_binary = lazy (binary_input (Lazy.force sim_items) ~tail:[])

let http_body resp =
  let rec find i =
    if i + 4 > String.length resp then None
    else if String.sub resp i 4 = "\r\n\r\n" then Some (String.sub resp (i + 4) (String.length resp - i - 4))
    else find (i + 1)
  in
  find 0

(* Connections carrying [kinds] of traffic, next to one that sends a
   string of hellos ([past_cap]: enough to pass the cap) and
   never reads, through one node in process; random reads, partial
   writes and hang-ups. A lone binary connection carries every item, so
   it is acked; otherwise the connections share a prefix. *)
let simulate profile (kinds, past_cap, seed) =
  let st = Random.State.make [| seed |] in
  let int n = Random.State.int st n in
  let items =
    let all = Lazy.force sim_items in
    if kinds = [ Bin ] then all else Array.sub all 0 (int 600)
  in
  (* sessions partitioned by connection, as a router partitions them *)
  let name i = Printf.sprintf "%d/%d" seed i in
  let owner =
    match List.concat (List.mapi (fun i k -> if k = Web then [] else [ name i ]) kinds) with
    | [] -> fun _ -> ""
    | carriers ->
        let ring = Cluster.Ring.create carriers and memo = Hashtbl.create 64 in
        fun session ->
          match Hashtbl.find_opt memo session with
          | Some node -> node
          | None ->
              let node = Cluster.Ring.node ring session in
              Hashtbl.add memo session node;
              node
  and daemon = Daemon.create ~shards:1 ~queue_capacity:(1 lsl 20) profile in
  let node = Conn.node ~name:sim_name daemon in
  let peer ~reads kind (input, ends) =
    let len = String.length input in
    let cut =
      match kind with
      | Bin when reads -> int (len + 1) (* hangs up mid-frame as often as not *)
      | Txt -> ( match int (Array.length ends + 1) with 0 -> 0 | k -> fst ends.(k - 1))
      | Bin | Web -> len
    in
    { kind; conn = Conn.create node; input; cut; ends; reads; fed = 0; hung_up = false;
      whole_at_feed_end = []; recv = Buffer.create 256 }
  in
  let flooder =
    peer ~reads:false Bin (hellos (if past_cap then 300 else int 30), [||])
  in
  let peers =
    List.mapi
      (fun i kind ->
        let me = name i in
        let mine () =
          Array.of_list
            (List.filter (fun it -> owner (Transport.item_session it) = me) (Array.to_list items))
        in
        peer ~reads:true kind
          (match kind with
          | Web ->
              let target = [| "/metrics"; "/healthz"; "/incidents?n=3" |].(int 3) in
              (Printf.sprintf "GET %s HTTP/1.1\r\nHost: sim\r\n\r\n" target, [||])
          | Txt -> text_input (mine ())
          | Bin when kinds = [ Bin ] -> Lazy.force sim_binary
          | Bin -> binary_input (mine ()) ~tail:[]))
      kinds
  in
  let all = flooder :: peers in
  let can_feed p = Conn.readable p.conn && (p.fed < p.cut || (p.reads && not p.hung_up)) in
  let can_drain p = p.reads && Conn.owed p.conn > 0 in
  let feed p =
    if p.fed < p.cut then begin
      let len = min (Sim.chunk st) (p.cut - p.fed) in
      Conn.feed p.conn ~len (String.sub p.input p.fed len);
      p.fed <- p.fed + len;
      p.whole_at_feed_end <- whole p p.fed :: p.whole_at_feed_end
    end
    else begin
      Conn.eof p.conn;
      p.hung_up <- true
    end;
    if Conn.owed flooder.conn > Conn.max_owed + hello_reply then
      QCheck2.Test.fail_reportf "never-read connection owes %d bytes" (Conn.owed flooder.conn)
  in
  let drain p = Sim.drain_some st p.conn p.recv in
  let rec run () =
    match List.filter (fun p -> can_feed p || can_drain p) all with
    | [] -> ()
    | ready ->
        let p = List.nth ready (int (List.length ready)) in
        if can_feed p && ((not (can_drain p)) || Random.State.bool st) then feed p else drain p;
        run ()
  in
  run ();
  if past_cap && Conn.owed flooder.conn <= Conn.max_owed then
    QCheck2.Test.fail_reportf "the flood never reached the cap (%d bytes owed)"
      (Conn.owed flooder.conn);
  (* a router's finish: hello, bye, then the node drains and answers *)
  let closer = Conn.create node in
  let bye = fst (binary_input [||] ~tail:[ Frame.Bye ]) in
  Conn.feed closer ~len:(String.length bye) bye;
  if Conn.state closer <> Conn.Bye then QCheck2.Test.fail_reportf "bye not seen";
  Conn.summarize closer (Daemon.drain daemon);
  let out = Buffer.create 4096 in
  Conn.drain closer (fun b pos len ->
      Buffer.add_subbytes out b pos len;
      len);
  let node_summary =
    match Sim.frames_of (Buffer.contents out) with
    | [ Frame.Hello _; Frame.Summary s ] -> s
    | fs -> QCheck2.Test.fail_reportf "closer read %d frames, not hello + summary" (List.length fs)
  in
  (* exactly what each peer delivered whole, in its own order *)
  let delivered =
    List.concat_map
      (fun p -> List.filter_map (fun (e, it) -> if e <= p.fed then Some it else None) (Array.to_list p.ends))
      peers
  in
  Sim.check_replay profile node_summary (Array.of_list delivered);
  (* what each reading peer got back *)
  List.iter
    (fun p ->
      let recv = Buffer.contents p.recv in
      match p.kind with
      | Web -> (
          match http_body recv with
          | Some body
            when String.starts_with ~prefix:"HTTP/1.1 " recv
                 && contains ~needle:(Printf.sprintf "Content-Length: %d\r\n" (String.length body)) recv
            -> ()
          | _ -> QCheck2.Test.fail_reportf "not one whole HTTP response: %S" recv)
      | Txt -> if recv <> "" then QCheck2.Test.fail_reportf "a text peer was answered"
      | Bin ->
          (* an Ack counts exactly the items delivered whole by the end
             of some read, and acks come at least 4096 items apart *)
          List.fold_left
            (fun last -> function
              | Frame.Ack { count } ->
                  if not (List.mem count p.whole_at_feed_end) then
                    QCheck2.Test.fail_reportf "ack of %d items matches no read's end" count;
                  if count - last < 4096 then
                    QCheck2.Test.fail_reportf "acks %d, %d too close" last count;
                  count
              | _ -> last)
            0 (Sim.frames_of recv)
          |> ignore)
    peers;
  true

let prop_node_simulation =
  QCheck2.Test.make ~name:"simulated connections = Replay.run" ~count:100
    ~print:(fun (kinds, past_cap, seed) ->
      Printf.sprintf "%s, %s, seed %d"
        (String.concat ", " (List.map wire_name kinds))
        (if past_cap then "never-read peer past the cap" else "never-read peer under the cap")
        seed)
    QCheck2.Gen.(
      let seed = int_bound 1_000_000 and past_cap = frequencyl [ (1, true); (5, false) ] in
      frequency
        [
          (1, map2 (fun past_cap seed -> ([ Bin ], past_cap, seed)) past_cap seed);
          (5, triple (list_size (int_range 1 4) (oneofl [ Bin; Txt; Web ])) past_cap seed);
        ])
    (fun script -> simulate (profile ()) script)

(* --- the admission path: allocation and release ------------------------------ *)

(* Items the worker has taken off the queue so far: each event and
   query observes the queue-wait histogram as it is dequeued. *)
let dequeued daemon =
  match
    Metrics.snapshot_histogram
      (Metrics.snapshot (Daemon.metrics daemon))
      "adprom_queue_wait_seconds"
  with
  | Some h -> h.Metrics.hs_count
  | None -> 0

let await_dequeued daemon n =
  let rec go tries =
    let d = dequeued daemon in
    if d < n then
      if tries = 0 then Alcotest.failf "the worker dequeued %d of %d items" d n
      else begin
        Unix.sleepf 0.001;
        go (tries - 1)
      end
  in
  go 30_000

(* Minor words the acceptor's domain allocates per admitted item, for
   each entry point, in rounds of 100 items that the worker dequeues
   before the next round starts; the first three rounds, which cross a
   chunk, warm the queue up. Before the chunked shard queues this read
   14 for [ingest], 9 for [ingest_query] and 12.75 for [ingest_item]:
   an [Event] or [Query] block and a [Queue] cell (6 words), a boxed
   clock reading (3) and, for events, a closure in [Metrics.set_gauge]
   (5). *)
let test_admission_allocates_nothing () =
  let qprofile = Adprom_qsig.Profile.create () in
  Adprom_qsig.Profile.learn qprofile "SELECT name FROM t";
  let daemon =
    Daemon.create ~shards:1 ~keep_verdicts:false ~queue_capacity:(1 lsl 20)
      ~qsig_mode:Daemon.Qsig_warn ~qsig_profile:qprofile (profile ())
  in
  let trace = List.hd (traces ()) in
  let round = 100 and rounds = 100 and warm = 3 in
  let n = round * rounds in
  let events =
    Array.init n (fun i ->
        { Transport.session = i / 500; event = trace.(i mod Array.length trace) })
  and queries =
    Array.init n (fun i ->
        { Transport.q_session = i / 500; rows = 2; sql = "SELECT name FROM t" })
  in
  let items =
    Array.init n (fun i ->
        if i mod 4 = 3 then Transport.Query queries.(i) else Transport.Call events.(i))
  in
  let admitted = ref 0 in
  let words_per_item admit xs =
    let words = ref 0.0 in
    for r = 0 to rounds - 1 do
      let w0 = Gc.minor_words () in
      for i = r * round to ((r + 1) * round) - 1 do
        match admit daemon xs.(i) with
        | Daemon.Accepted -> ()
        | Daemon.Rejected _ -> Alcotest.fail "item rejected"
      done;
      let w = Gc.minor_words () -. w0 in
      if r >= warm then words := !words +. w;
      admitted := !admitted + round;
      await_dequeued daemon !admitted
    done;
    !words /. float_of_int ((rounds - warm) * round)
  in
  let check name per_item =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.2f minor words per item <= 0.5" name per_item)
      true (per_item <= 0.5)
  in
  check "ingest" (words_per_item Daemon.ingest events);
  check "ingest_query" (words_per_item Daemon.ingest_query queries);
  check "ingest_item" (words_per_item Daemon.ingest_item items);
  ignore (Daemon.drain daemon)

(* Events the worker has taken off the queue must not stay reachable
   from the daemon, or a burst's events would live as long as it does.
   The tracked events span several of a queue's chunks. *)
let test_daemon_releases_dequeued_events () =
  let daemon = Daemon.create ~shards:1 ~keep_verdicts:false (profile ()) in
  let trace = List.hd (traces ()) in
  let n = 1000 in
  let weak = Weak.create n in
  let admit i =
    let ev = { Transport.session = i mod 3; event = trace.(i mod Array.length trace) } in
    Weak.set weak i (Some ev);
    ignore (Daemon.ingest daemon ev)
  in
  for i = 0 to n - 1 do
    admit i
  done;
  (* queues are FIFO: once the worker has dequeued one more event, it
     is done with every tracked one *)
  ignore (Daemon.ingest daemon { Transport.session = 0; event = trace.(0) });
  await_dequeued daemon (n + 1);
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check weak i then incr live
  done;
  Alcotest.(check int) "dequeued events still reachable" 0 !live;
  ignore (Daemon.drain daemon)

let () =
  Alcotest.run "service"
    [
      ( "codec",
        [
          Alcotest.test_case "round trip" `Quick test_codec_roundtrip;
          Alcotest.test_case "round trip (real stream)" `Quick test_codec_roundtrip_real_stream;
          Alcotest.test_case "line-numbered errors" `Quick test_codec_errors;
          Alcotest.test_case "trace_io hardening" `Quick test_trace_io_errors;
          Alcotest.test_case "event cache bounded" `Quick test_text_cache_bounded;
          Alcotest.test_case "repeated events shared" `Quick test_text_repeats_shared;
        ] );
      ( "scorer",
        [
          Alcotest.test_case "matches the batch loop" `Quick test_scorer_matches_batch;
          Alcotest.test_case "short traces flush one window" `Quick test_scorer_short_trace;
          Alcotest.test_case "push after flush is a soft error" `Quick
            test_scorer_push_after_flush;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "replay matches batch verdicts" `Quick test_daemon_matches_batch;
          Alcotest.test_case "shard determinism" `Quick test_daemon_shard_determinism;
          Alcotest.test_case "sheds whole sessions, counts drops" `Quick
            test_daemon_sheds_whole_sessions;
          Alcotest.test_case "conservation under pressure" `Quick
            test_daemon_conservation_under_pressure;
          Alcotest.test_case "alerts flow from verdicts" `Quick test_daemon_feeds_alerts;
          Alcotest.test_case "incidents carry explanations" `Quick
            test_daemon_explains_incidents;
          Alcotest.test_case "explain counts the window once" `Quick
            test_explain_counts_window_once;
          Alcotest.test_case "oversize literal is a Malformed query" `Quick
            test_daemon_oversize_literal;
          Alcotest.test_case "admission allocates nothing" `Quick
            test_admission_allocates_nothing;
          Alcotest.test_case "dequeued events are released" `Quick
            test_daemon_releases_dequeued_events;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "dump is sorted (golden)" `Quick
            test_metrics_dump_sorted_golden;
          Alcotest.test_case "merged snapshots render max gauges, summed buckets"
            `Quick test_render_merged_snapshots;
          Alcotest.test_case "observe allocates nothing" `Quick
            test_observe_allocates_nothing;
          Alcotest.test_case "gauge watermark under two domains" `Quick
            test_gauge_max_two_domains;
        ] );
      ( "alerts",
        [
          Alcotest.test_case "unified incident log" `Quick test_alert_sink;
          Alcotest.test_case "explanations rendered" `Quick
            test_alert_explanation_rendered;
        ] );
      ( "node",
          [ QCheck_alcotest.to_alcotest prop_node_simulation ] );
      ( "sessions properties",
        [
          QCheck_alcotest.to_alcotest prop_demux_inverts_interleave;
          QCheck_alcotest.to_alcotest prop_windows_per_session;
          QCheck_alcotest.to_alcotest prop_interleave_matches_reference;
        ] );
    ]
