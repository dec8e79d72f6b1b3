(* Tests for the static query-signature inference (Qstatic/Strdom) and
   the engine's static gate: deterministic template/widening cases, the
   QCheck2 soundness property (observed signatures are contained in the
   statically inferred set on random benign programs), the injectable
   call-site witness, and the gate's explain/enforce semantics. *)

module Parser = Applang.Parser
module Cfg_build = Analysis.Cfg_build
module Qstatic = Analysis.Qstatic
module Interp = Runtime.Interp
module Testcase = Runtime.Testcase
module Engine = Adprom_qsig.Engine
module Pipeline = Adprom.Pipeline

let build src = fst (Cfg_build.build_program (Parser.parse_program src))
let infer_src src = Qstatic.infer (build src)

let run_src ?(input = []) src =
  let analysis = Analysis.Analyzer.analyze (Parser.parse_program src) in
  let engine = Sqldb.Engine.create () in
  ignore (Sqldb.Engine.exec engine "CREATE TABLE t (a, b)");
  ignore (Sqldb.Engine.exec engine "INSERT INTO t VALUES (1, 'x')");
  let tc = Testcase.make ~input "t" in
  snd (Interp.collect_trace ~analysis ~engine tc)

(* every raw text submitted to the DB plus every bound execution from
   the audit-log view — the traffic the monitor would canonicalize *)
let observed_signatures (out : Interp.outcome) =
  List.sort_uniq compare
    (List.filter_map
       (fun sql -> Result.to_option (Result.map Sqldb.Sql_pp.signature (Sqldb.Sql_parser.parse sql)))
       (out.Interp.queries @ List.map fst out.Interp.query_log))

let subset l r = List.for_all (fun x -> List.mem x r) l

(* --- deterministic inference cases ---------------------------------------- *)

let test_constant_query () =
  let r = infer_src {| fun main() {
      let conn = db_connect("pg");
      pq_exec(conn, "SELECT a FROM t WHERE a = 7");
    } |} in
  Alcotest.(check bool) "complete" true r.Qstatic.complete;
  Alcotest.(check (list string)) "one signature"
    [ "SELECT a FROM t WHERE a = ?" ] r.Qstatic.signatures;
  Alcotest.(check bool) "not injectable" true
    (List.for_all (fun (s : Qstatic.site) -> s.Qstatic.injectable = None)
       r.Qstatic.sites)

let loop_src =
  {| fun main() {
       let conn = db_connect("pg");
       let n = atoi(scanf());
       let q = "SELECT a FROM t WHERE a IN (0";
       for (let i = 0; i < n; i = i + 1) { q = strcat(q, ", 1"); }
       q = strcat(q, ")");
       pq_exec(conn, q);
     } |}

let test_loop_widening_arity_classes () =
  let r = infer_src loop_src in
  Alcotest.(check bool) "complete" true r.Qstatic.complete;
  Alcotest.(check (list string)) "the three IN-list arity classes"
    [
      "SELECT a FROM t WHERE a IN (?{1})";
      "SELECT a FROM t WHERE a IN (?{few})";
      "SELECT a FROM t WHERE a IN (?{many})";
    ]
    (List.sort compare r.Qstatic.signatures)

let test_loop_runtime_contained () =
  let static = infer_src loop_src in
  List.iter
    (fun n ->
      let out = run_src ~input:[ string_of_int n ] loop_src in
      Alcotest.(check bool)
        (Printf.sprintf "run with %d extra elements contained" n)
        true
        (subset (observed_signatures out) static.Qstatic.signatures))
    [ 0; 1; 3; 12 ]

let test_sprintf_interpolation () =
  let r = infer_src {| fun main() {
      let conn = db_connect("pg");
      let id = atoi(scanf());
      pq_exec(conn, sprintf("SELECT b FROM t WHERE a = %d AND b = '%s'", id, "x"));
    } |} in
  Alcotest.(check bool) "complete" true r.Qstatic.complete;
  Alcotest.(check (list string)) "holes become parameter slots"
    [ "SELECT b FROM t WHERE a = ? AND b = ?" ] r.Qstatic.signatures

let test_prepare_site_covers_bound_traffic () =
  let src = {| fun main() {
      let conn = db_connect("pg");
      let id = atoi(scanf());
      let stmt = pq_prepare(conn, "SELECT b FROM t WHERE a = ?");
      let r = pq_exec_prepared(conn, stmt, id);
      printf("%d\n", pq_ntuples(r));
    } |} in
  let static = infer_src src in
  Alcotest.(check bool) "complete" true static.Qstatic.complete;
  Alcotest.(check bool) "prepare site marked" true
    (List.exists (fun (s : Qstatic.site) -> s.Qstatic.prepare) static.Qstatic.sites);
  let out = run_src ~input:[ "1" ] src in
  Alcotest.(check bool) "bound executions contained" true
    (subset (observed_signatures out) static.Qstatic.signatures)

(* --- queries arrive oldest-first (the Istate accessor fix) ----------------- *)

let test_query_log_program_order () =
  let out = run_src {| fun main() {
      let conn = db_connect("pg");
      pq_exec(conn, "SELECT a FROM t");
      pq_exec(conn, "SELECT b FROM t");
      pq_exec(conn, "DELETE FROM t");
    } |} in
  Alcotest.(check (list string)) "submission order"
    [ "SELECT a FROM t"; "SELECT b FROM t"; "DELETE FROM t" ]
    out.Interp.queries;
  Alcotest.(check (list string)) "log order matches"
    [ "SELECT a FROM t"; "SELECT b FROM t"; "DELETE FROM t" ]
    (List.map fst out.Interp.query_log)

(* --- the injectable witness ------------------------------------------------ *)

let test_injectable_site_witness () =
  let r = infer_src {| fun main() {
      let conn = db_connect("pg");
      let acc = scanf();
      let q = strcat("SELECT b FROM t WHERE b='", strcat(acc, "'"));
      pq_exec(conn, q);
    } |} in
  match
    List.find_opt
      (fun (s : Qstatic.site) -> s.Qstatic.injectable <> None)
      r.Qstatic.sites
  with
  | None -> Alcotest.fail "concatenated scanf input not flagged injectable"
  | Some s ->
      let path = Option.get s.Qstatic.injectable in
      Alcotest.(check bool) "witness starts at the source" true
        (match path with "scanf" :: _ -> true | _ -> false)

let test_sanitized_input_not_injectable () =
  (* atoi forces digits: the tainted bytes cannot alter SQL structure *)
  let r = infer_src {| fun main() {
      let conn = db_connect("pg");
      let acc = to_string(atoi(scanf()));
      let q = strcat("SELECT b FROM t WHERE a=", acc);
      pq_exec(conn, q);
    } |} in
  Alcotest.(check bool) "no injectable site" true
    (List.for_all (fun (s : Qstatic.site) -> s.Qstatic.injectable = None)
       r.Qstatic.sites)

(* --- QCheck2: soundness on random benign programs -------------------------- *)

(* Random programs assembled from the shapes the domain models: constant
   texts, integer and in-quote string interpolation, sprintf, IN-list
   builder loops, prepared statements. Inputs are benign (digits and
   alphanumerics), matching the soundness contract's literal-shaped
   premise. *)
let qprog_gen =
  let open QCheck2.Gen in
  let stmt =
    oneofl
      [
        {| pq_exec(conn, "SELECT a FROM t"); |};
        {| pq_exec(conn, "INSERT INTO t (a, b) VALUES (3, 'y')"); |};
        {| pq_exec(conn, strcat("SELECT a FROM t WHERE a = ", to_string(id))); |};
        {| pq_exec(conn, sprintf("SELECT b FROM t WHERE a = %d AND b = '%s'", id, s)); |};
        {| let q = "SELECT a FROM t WHERE a IN (0";
           for (let i = 0; i < id; i = i + 1) { q = strcat(q, ", 1"); }
           pq_exec(conn, strcat(q, ")")); |};
        {| let stmt = pq_prepare(conn, "SELECT b FROM t WHERE a = ?");
           let r = pq_exec_prepared(conn, stmt, id);
           printf("%d\n", pq_ntuples(r)); |};
      ]
  in
  let* stmts = list_size (int_range 1 5) stmt in
  let* n = int_range 0 15 in
  let* word = string_size ~gen:(char_range 'a' 'z') (int_range 0 8) in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "fun main() {\n";
  Buffer.add_string buf "  let conn = db_connect(\"pg\");\n";
  Buffer.add_string buf "  let id = atoi(scanf());\n";
  Buffer.add_string buf "  let s = scanf();\n";
  List.iter (fun s -> Buffer.add_string buf ("  " ^ s ^ "\n")) stmts;
  Buffer.add_string buf "}\n";
  pure (Buffer.contents buf, [ string_of_int n; word ])

let prop_soundness =
  QCheck2.Test.make ~name:"observed signatures contained in static set"
    ~count:100
    ~print:(fun (src, input) -> src ^ "\ninput: " ^ String.concat "," input)
    qprog_gen
    (fun (src, input) ->
      let static = infer_src src in
      let out = run_src ~input src in
      static.Qstatic.complete
      && subset (observed_signatures out) static.Qstatic.signatures)

(* --- engine gate: explain is bit-for-bit, enforce is a subset --------------- *)

let gate_src =
  {| fun main() {
       let conn = db_connect("pg");
       let id = atoi(scanf());
       pq_exec(conn, strcat("SELECT b FROM t WHERE a = ", to_string(id)));
       pq_exec(conn, "SELECT a FROM t");
     } |}

let gate_setup () =
  let outs = List.map (fun i -> run_src ~input:[ string_of_int i ] gate_src) [ 1; 2; 3 ] in
  let profile = Adprom.Audit.learn outs in
  let static = infer_src gate_src in
  (* the traffic mix: in-profile bound texts, an out-of-program shape,
     and a malformed text *)
  let traffic =
    List.concat_map (fun (o : Interp.outcome) -> List.map fst o.Interp.query_log) outs
    @ [ "SELECT secret FROM elsewhere WHERE x = 1"; "SELECT FROM FROM (" ]
  in
  (profile, static, traffic)

let verdicts engine traffic = List.map (fun sql -> Engine.check engine sql) traffic

let test_trained_contained_in_static () =
  let profile, static, _ = gate_setup () in
  Alcotest.(check bool) "complete" true static.Qstatic.complete;
  Alcotest.(check bool) "trained subset of static" true
    (subset (Adprom_qsig.Profile.signatures profile) static.Qstatic.signatures)

let test_gate_explain_bit_for_bit () =
  let profile, static, traffic = gate_setup () in
  let off = Engine.create profile in
  let explain = Engine.create profile in
  Engine.set_static_signatures explain ~complete:static.Qstatic.complete
    static.Qstatic.signatures;
  let v_off = verdicts off traffic and v_explain = verdicts explain traffic in
  Alcotest.(check (list string)) "verdicts bit-for-bit"
    (List.map Engine.verdict_to_string v_off)
    (List.map Engine.verdict_to_string v_explain);
  Alcotest.(check bool) "identical records" true (v_off = v_explain);
  Alcotest.(check int) "off engine: no gate checks" 0 (Engine.gate_checks off);
  Alcotest.(check int) "every check gated" (List.length traffic)
    (Engine.gate_checks explain);
  (* the impossible shape is counted, the malformed text is not *)
  Alcotest.(check int) "one would-be rejection" 1 (Engine.gate_rejections explain)

let test_gate_enforce_subset_of_strict () =
  let profile, static, traffic = gate_setup () in
  let strict = Engine.create ~policy:Adprom_qsig.Constraints.Strict profile in
  let enforce = Engine.create ~policy:Adprom_qsig.Constraints.Strict profile in
  Engine.set_static_signatures enforce ~complete:static.Qstatic.complete
    static.Qstatic.signatures;
  Engine.set_gate_enforce enforce true;
  List.iter2
    (fun sql (v_strict, v_enforce) ->
      if v_enforce.Engine.anomalous then
        Alcotest.(check bool)
          (Printf.sprintf "gate-rejected %S also strict-anomalous" sql)
          true v_strict.Engine.anomalous)
    traffic
    (List.combine (verdicts strict traffic) (verdicts enforce traffic));
  Alcotest.(check bool) "impossible shape rejected by the gate" true
    (match Engine.check enforce "SELECT secret FROM elsewhere WHERE x = 1" with
    | { Engine.anomalous = true; reasons = [ Engine.Impossible_signature _ ] } ->
        true
    | _ -> false)

let test_gate_incomplete_never_rejects () =
  let profile, _, traffic = gate_setup () in
  let engine = Engine.create profile in
  (* an incomplete (under-approximating) static set must not reject,
     even under enforce and even when empty *)
  Engine.set_static_signatures engine ~complete:false [];
  Engine.set_gate_enforce engine true;
  ignore (verdicts engine traffic);
  Alcotest.(check int) "checks counted" (List.length traffic)
    (Engine.gate_checks engine);
  Alcotest.(check int) "no rejections" 0 (Engine.gate_rejections engine)

let test_gate_load_flushes_memo () =
  let profile, static, _ = gate_setup () in
  let engine = Engine.create profile in
  Engine.set_gate_enforce engine true;
  let sql = "SELECT secret FROM elsewhere WHERE x = 1" in
  let before = Engine.check engine sql in
  Alcotest.(check bool) "unknown before the static set loads" true
    (List.exists
       (function Engine.Unknown_signature _ -> true | _ -> false)
       before.Engine.reasons);
  Engine.set_static_signatures engine ~complete:true static.Qstatic.signatures;
  let after = Engine.check engine sql in
  Alcotest.(check bool) "gate-rejected after (memo flushed)" true
    (after.Engine.reasons
    = [
        Engine.Impossible_signature
          (match before.Engine.reasons with
          | Engine.Unknown_signature key :: _ -> key
          | _ -> "");
      ])

(* --- the daemon installs the gate: explain is bit-for-bit, enforce adds --- *)

module Service = Adprom_service

let test_daemon_gate () =
  let app = Dataset.Ca_banking.app () in
  let dataset = Pipeline.collect app in
  let analysis = dataset.Pipeline.analysis in
  let profile = Pipeline.train dataset in
  let qsig = Pipeline.train_qsig ~analysis app in
  let _, items = Banking_stream.items (Banking_stream.runs app analysis) in
  (* a queue bound no burst reaches: no session is shed by scheduling *)
  let replay gate =
    Service.Replay.run
      (Service.Daemon.create ~shards:2 ~queue_capacity:(Array.length items)
         ~vet_against:analysis ~qsig_mode:Service.Daemon.Qsig_warn
         ~qsig_profile:qsig ~qsig_static_gate:gate profile)
      items
  in
  let off = replay Service.Daemon.Gate_off
  and explain = replay Service.Daemon.Gate_explain
  and enforce = replay Service.Daemon.Gate_enforce in
  let counter (o : Service.Replay.outcome) name =
    Service.Metrics.counter_value
      (Service.Metrics.counter o.Service.Replay.metrics name)
  in
  let checked (o : Service.Replay.outcome) =
    List.fold_left
      (fun n (r : Service.Daemon.session_report) -> n + r.Service.Daemon.qsig_checks)
      0 o.Service.Replay.summary.Service.Daemon.sessions
  in
  let anomalies (o : Service.Replay.outcome) =
    List.filter_map
      (fun (i : Service.Alerts.incident) ->
        match i.Service.Alerts.source with
        | Service.Alerts.Query_verdict { query_index; _ } ->
            Some (i.Service.Alerts.session, query_index)
        | _ -> None)
      (Service.Alerts.incidents o.Service.Replay.alerts)
  in
  Alcotest.(check bool) "nothing shed" true
    (List.for_all
       (fun (o : Service.Replay.outcome) ->
         o.Service.Replay.summary.Service.Daemon.shed = [])
       [ off; explain; enforce ]);
  Alcotest.(check bool) "explain reports bit-for-bit off's" true
    (Banking_stream.reports off = Banking_stream.reports explain);
  Alcotest.(check int) "off: no gate checks" 0
    (counter off "adprom_qsig_gate_checks_total");
  Alcotest.(check bool) "queries checked" true (checked explain > 0);
  Alcotest.(check int) "explain: every checked query gated" (checked explain)
    (counter explain "adprom_qsig_gate_checks_total");
  Alcotest.(check bool) "enforce: the injected query is gate-rejected" true
    (counter enforce "adprom_qsig_gate_rejections_total" > 0);
  Alcotest.(check bool) "enforce anomalies superset of explain's" true
    (subset (anomalies explain) (anomalies enforce))

(* --- the banking corpus: complete, contained, and the sqli site found ------- *)

let test_banking_static_profile () =
  let app = Dataset.Ca_banking.app () in
  let analysis = Pipeline.analyze_app app in
  let static = Qstatic.infer analysis.Analysis.Analyzer.pruned_cfgs in
  Alcotest.(check bool) "banking inference complete" true static.Qstatic.complete;
  let qsig = Pipeline.train_qsig ~analysis app in
  let trained = Adprom_qsig.Profile.signatures qsig in
  Alcotest.(check bool) "trained signatures all statically emittable" true
    (subset trained static.Qstatic.signatures);
  (* the Attack 5 surface: lookup_client concatenates the account id *)
  match
    List.find_opt
      (fun (s : Qstatic.site) ->
        s.Qstatic.func = "lookup_client" && s.Qstatic.injectable <> None)
      static.Qstatic.sites
  with
  | None -> Alcotest.fail "banking lookup_client injection site not flagged"
  | Some s ->
      Alcotest.(check bool) "witness from scanf" true
        (match Option.get s.Qstatic.injectable with
        | "scanf" :: _ -> true
        | _ -> false)

(* -------------------------------------------------------------------------- *)

let () =
  Alcotest.run "qstatic"
    [
      ( "inference",
        [
          Alcotest.test_case "constant query" `Quick test_constant_query;
          Alcotest.test_case "loop widening arity classes" `Quick
            test_loop_widening_arity_classes;
          Alcotest.test_case "loop runtime contained" `Quick
            test_loop_runtime_contained;
          Alcotest.test_case "sprintf interpolation" `Quick
            test_sprintf_interpolation;
          Alcotest.test_case "prepare covers bound traffic" `Quick
            test_prepare_site_covers_bound_traffic;
          Alcotest.test_case "query log program order" `Quick
            test_query_log_program_order;
        ] );
      ( "injection",
        [
          Alcotest.test_case "injectable witness" `Quick
            test_injectable_site_witness;
          Alcotest.test_case "sanitized input clean" `Quick
            test_sanitized_input_not_injectable;
        ] );
      ( "soundness",
        [ QCheck_alcotest.to_alcotest prop_soundness ] );
      ( "gate",
        [
          Alcotest.test_case "trained contained in static" `Quick
            test_trained_contained_in_static;
          Alcotest.test_case "explain bit-for-bit" `Quick
            test_gate_explain_bit_for_bit;
          Alcotest.test_case "enforce subset of strict" `Quick
            test_gate_enforce_subset_of_strict;
          Alcotest.test_case "incomplete never rejects" `Quick
            test_gate_incomplete_never_rejects;
          Alcotest.test_case "load flushes memo" `Quick
            test_gate_load_flushes_memo;
          Alcotest.test_case "daemon installs the gate" `Quick test_daemon_gate;
        ] );
      ( "corpus",
        [ Alcotest.test_case "banking static profile" `Quick test_banking_static_profile ] );
    ]
