(* Tests for the static leakage summaries (Flowdom/Leakage) and the
   sensitivity-policy vet checks: golden outputs on the leaky fixtures,
   deterministic flow cases, the QCheck2 soundness property — every
   dynamic sink flow the tagged-value interpreter observes is covered by
   the static summary when the analysis is complete — and the runtime
   fusion: the daemon's leak-capability note on banking incidents. *)

module Parser = Applang.Parser
module Analyzer = Analysis.Analyzer
module Qstatic = Analysis.Qstatic
module Leakage = Analysis.Leakage
module Flowdom = Analysis.Flowdom
module Vet = Analysis.Vet
module Diag = Analysis.Diag
module Sens = Applang.Libspec.Sensitivity
module Interp = Runtime.Interp
module Testcase = Runtime.Testcase

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fixture name = read_file (Filename.concat "../examples/vet" name)

let policy =
  lazy
    (match Sens.parse (fixture "leakage.policy") with
    | Ok p -> p
    | Error e -> failwith ("cannot parse leakage.policy: " ^ e))

(* Analyze on the pruned CFGs, exactly as the CLI does: block ids must
   line up with the runtime collector's labeled sink sites. *)
let summarize ?schema src =
  let analysis = Analyzer.analyze (Parser.parse_program src) in
  let cfgs = analysis.Analyzer.front.Analysis.Front.pruned in
  let static = Qstatic.infer cfgs in
  Leakage.analyze ?schema ~static cfgs

let leak_diags src =
  let pol = Lazy.force policy in
  let summary = summarize ~schema:(Sens.schema pol) src in
  Vet.check_leakage ~policy:pol ~summary

(* --- golden outputs on the leaky fixtures --------------------------------- *)

let test_fixture_leaky () =
  Alcotest.(check (list string))
    "leaky.app findings"
    [
      "error[leak-sensitive-column] main#15: secret column customers.ssn can \
       reach `printf` at cardinality ?{many} (witness: mysql_query(main#4) -> \
       conn -> res -> row)";
      "warning[leak-unbounded-cardinality] main#15: internal column \
       customers.name can reach `printf` with no cardinality bound (?{many}); \
       bound the query with LIMIT or a key predicate (witness: \
       mysql_query(main#4) -> conn -> res -> row)";
    ]
    (List.map Diag.to_string (leak_diags (fixture "leaky.app")))

let test_fixture_leaky_bounded () =
  (* key-equality predicate + LIMIT 1 bound the prepared query to one
     row of an internal column: nothing to report *)
  Alcotest.(check (list string))
    "leaky_bounded.app findings" []
    (List.map Diag.to_string (leak_diags (fixture "leaky_bounded.app")));
  let pol = Lazy.force policy in
  let summary =
    summarize ~schema:(Sens.schema pol) (fixture "leaky_bounded.app")
  in
  Alcotest.(check bool) "complete" true summary.Leakage.complete;
  match summary.Leakage.sinks with
  | [ s ] ->
      Alcotest.(check string) "sink callee" "printf" s.Leakage.callee;
      Alcotest.(check (list string))
        "one bounded atom" [ "customers.name ?{1}" ]
        (List.map Flowdom.atom_to_string s.Leakage.atoms)
  | sinks ->
      Alcotest.failf "expected exactly one sink, got %d" (List.length sinks)

let test_fixture_leaky_summary () =
  let pol = Lazy.force policy in
  let summary = summarize ~schema:(Sens.schema pol) (fixture "leaky.app") in
  Alcotest.(check bool) "complete" true summary.Leakage.complete;
  match summary.Leakage.sinks with
  | [ s ] ->
      Alcotest.(check (list string))
        "both columns, unbounded"
        [ "customers.name ?{many}"; "customers.ssn ?{many}" ]
        (List.map Flowdom.atom_to_string s.Leakage.atoms)
  | sinks ->
      Alcotest.failf "expected exactly one sink, got %d" (List.length sinks)

(* --- deterministic flow cases ---------------------------------------------- *)

let test_string_builtins_propagate () =
  let pol = Lazy.force policy in
  let summary =
    summarize ~schema:(Sens.schema pol)
      {| fun main() {
           let conn = db_connect("pg");
           let r = pq_exec(conn, "SELECT ssn FROM customers LIMIT 1");
           let v = strcat("ssn: ", pq_getvalue(r, 0, 0));
           puts(v);
         } |}
  in
  match summary.Leakage.sinks with
  | [ s ] ->
      Alcotest.(check string) "sink is puts" "puts" s.Leakage.callee;
      Alcotest.(check (list string))
        "atom rides through strcat" [ "customers.ssn ?{1}" ]
        (List.map Flowdom.atom_to_string s.Leakage.atoms)
  | sinks ->
      Alcotest.failf "expected exactly one sink, got %d" (List.length sinks)

let test_no_schema_keeps_star () =
  let summary =
    summarize
      {| fun main() {
           let conn = db_connect("pg");
           let r = pq_exec(conn, "SELECT * FROM customers");
           printf("%s\n", pq_getvalue(r, 0, 0));
         } |}
  in
  match summary.Leakage.sinks with
  | [ s ] ->
      Alcotest.(check (list string))
        "whole-row atom without a schema" [ "customers.* ?{many}" ]
        (List.map Flowdom.atom_to_string s.Leakage.atoms)
  | sinks ->
      Alcotest.failf "expected exactly one sink, got %d" (List.length sinks)

let test_unqueried_value_clean () =
  let pol = Lazy.force policy in
  let summary =
    summarize ~schema:(Sens.schema pol)
      {| fun main() {
           let conn = db_connect("pg");
           let r = pq_exec(conn, "SELECT ssn FROM customers");
           printf("%d rows\n", pq_ntuples(r));
         } |}
  in
  Alcotest.(check int) "row count carries no column data" 0
    (List.length summary.Leakage.sinks)

(* --- QCheck2: dynamic sink flows covered by the static summary ------------- *)

(* Random programs assembled from the flow shapes the domain models:
   constant selects over both client libraries, star expansion, row
   indexing, fetch loops, string-builtin copies and key-bounded prepared
   statements — all against the declared customers(id, name, ssn)
   schema. Inputs are benign digits. *)
let lprog_gen =
  let open QCheck2.Gen in
  let stmt =
    oneofl
      [
        (fun k ->
          Printf.sprintf
            {| let r%d = pq_exec(conn, "SELECT name, ssn FROM customers");
               let n%d = pq_ntuples(r%d);
               for (let i%d = 0; i%d < n%d; i%d = i%d + 1) {
                 printf("%%s %%s\n", pq_getvalue(r%d, i%d, 0), pq_getvalue(r%d, i%d, 1));
               } |}
            k k k k k k k k k k k k);
        (fun k ->
          Printf.sprintf
            {| let r%d = pq_exec(conn, "SELECT * FROM customers");
               printf("%%s\n", pq_getvalue(r%d, 0, 0)); |}
            k k);
        (fun k ->
          Printf.sprintf
            {| let r%d = pq_exec(conn, "SELECT ssn FROM customers WHERE id = 1 LIMIT 1");
               let v%d = strcat("ssn: ", pq_getvalue(r%d, 0, 0));
               puts(v%d); |}
            k k k k);
        (fun k ->
          Printf.sprintf
            {| let stmt%d = pq_prepare(conn, "SELECT name FROM customers WHERE id = ?");
               let r%d = pq_exec_prepared(conn, stmt%d, id);
               printf("%%s\n", pq_getvalue(r%d, 0, 0)); |}
            k k k k);
        (fun k ->
          Printf.sprintf
            {| mysql_query(mconn, "SELECT id, name FROM customers");
               let res%d = mysql_store_result(mconn);
               let row%d = mysql_fetch_row(res%d);
               while (row%d != null) {
                 printf("%%s %%s\n", row%d[0], row%d[1]);
                 row%d = mysql_fetch_row(res%d);
               } |}
            k k k k k k k k);
        (fun k ->
          Printf.sprintf
            {| let stmt%d = mysql_prepare(mconn, "SELECT ssn FROM customers WHERE id = ? LIMIT 1");
               let res%d = mysql_stmt_execute(mconn, stmt%d, id);
               let row%d = mysql_fetch_row(res%d);
               if (row%d != null) { puts(row%d[0]); } |}
            k k k k k k k);
        (fun k ->
          Printf.sprintf
            {| let r%d = pq_exec(conn, "SELECT name FROM customers");
               printf("%%d rows\n", pq_ntuples(r%d)); |}
            k k);
      ]
  in
  let* stmts = list_size (int_range 1 4) stmt in
  let* n = int_range 0 9 in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "fun main() {\n";
  Buffer.add_string buf "  let conn = db_connect(\"pg\");\n";
  Buffer.add_string buf "  let mconn = db_connect(\"mysql\");\n";
  Buffer.add_string buf "  let id = atoi(scanf());\n";
  List.iteri (fun k s -> Buffer.add_string buf ("  " ^ s k ^ "\n")) stmts;
  Buffer.add_string buf "}\n";
  pure (Buffer.contents buf, [ string_of_int n ])

let run_src ~input src =
  let analysis = Analyzer.analyze (Parser.parse_program src) in
  let engine = Sqldb.Engine.create () in
  ignore (Sqldb.Engine.exec engine "CREATE TABLE customers (id, name, ssn)");
  for i = 0 to 4 do
    ignore
      (Sqldb.Engine.exec engine
         (Printf.sprintf "INSERT INTO customers VALUES (%d, 'n%d', 's%d')" i i i))
  done;
  snd (Interp.collect_trace ~analysis ~engine (Testcase.make ~input "t"))

(* An atom covers a concrete (table, column) flow exactly, via the
   whole-row ["*"] column, or conservatively via unknown provenance. *)
let covers (atoms : Flowdom.atom list) table column =
  List.exists
    (fun (a : Flowdom.atom) ->
      match a.Flowdom.src with
      | Flowdom.Col { table = t; column = c } ->
          t = table && (c = column || c = "*")
      | Flowdom.Opaque _ -> true)
    atoms

let prop_soundness =
  QCheck2.Test.make ~name:"dynamic sink flows covered by static summary"
    ~count:80
    ~print:(fun (src, input) -> src ^ "\ninput: " ^ String.concat "," input)
    lprog_gen
    (fun (src, input) ->
      let pol = Lazy.force policy in
      let summary = summarize ~schema:(Sens.schema pol) src in
      let out = run_src ~input src in
      summary.Leakage.complete
      && List.for_all
           (fun (block, (table, column)) ->
             List.exists
               (fun (s : Leakage.sink) ->
                 s.Leakage.block = block
                 && covers s.Leakage.atoms table column)
               summary.Leakage.sinks)
           out.Interp.sink_flows)

(* --- the sensitivity policy parser ----------------------------------------- *)

let test_policy_parse () =
  let pol = Lazy.force policy in
  Alcotest.(check string) "ssn is secret" "secret"
    (Sens.level_to_string (Sens.level pol ~table:"customers" ~column:"ssn"));
  Alcotest.(check string) "name is internal" "internal"
    (Sens.level_to_string (Sens.level pol ~table:"customers" ~column:"name"));
  Alcotest.(check string) "undeclared columns default to public" "public"
    (Sens.level_to_string (Sens.level pol ~table:"clients" ~column:"balance"))

let test_policy_parse_error () =
  match Sens.parse "secret customers\n" with
  | Ok _ -> Alcotest.fail "accepted a rule without a column"
  | Error _ -> ()

(* --- runtime fusion: incidents carry the capability of the fired sink ------- *)

module Service = Adprom_service

let banking_policy =
  "table clients(id, name, balance)\n\
   key clients.id\n\
   secret clients.balance\n\
   internal clients.name\n"

type banking = {
  profile : Adprom.Profile.t;
  analysis : Analyzer.t;
  calls : Service.Transport.item array;
  mixed : Service.Transport.item array;
      (* [calls], then each session's executed queries *)
  qsig : Adprom_qsig.Profile.t;
  pol : Sens.t;
}

let banking =
  lazy
    (let app = Dataset.Ca_banking.app () in
     let dataset = Adprom.Pipeline.collect app in
     let analysis = dataset.Adprom.Pipeline.analysis in
     let calls, mixed = Banking_stream.items (Banking_stream.runs app analysis) in
     {
       profile = Adprom.Pipeline.train dataset;
       analysis;
       calls;
       mixed;
       qsig = Adprom.Pipeline.train_qsig app;
       pol =
         (match Sens.parse banking_policy with
         | Ok pol -> pol
         | Error e -> failwith ("banking policy: " ^ e));
     })

let leaks (o : Service.Replay.outcome) =
  List.filter_map
    (fun (i : Service.Alerts.incident) ->
      match i.Service.Alerts.source with
      | Service.Alerts.Verdict { verdict; leak; _ }
        when verdict.Adprom.Detector.flag = Adprom.Detector.Data_leak ->
          Some leak
      | _ -> None)
    (Service.Alerts.incidents o.Service.Replay.alerts)

let balance = "printf <- clients.balance ?{1}"

let names_balance o =
  List.for_all
    (function Some l -> String.starts_with ~prefix:balance l | None -> false)
    (leaks o)

let test_runtime_leak_annotation () =
  let b = Lazy.force banking in
  let items = b.calls in
  (* a queue bound no burst can reach: a shed session would make the
     two runs differ by scheduling, not by the annotation *)
  let replay ?leakage_policy () =
    Service.Replay.run
      (Service.Daemon.create ~shards:2 ~queue_capacity:(Array.length items)
         ~vet_against:b.analysis ?leakage_policy b.profile)
      items
  in
  let plain = replay () and annotated = replay ~leakage_policy:b.pol () in
  Alcotest.(check bool) "nothing shed" true
    (plain.Service.Replay.summary.Service.Daemon.shed = []
    && annotated.Service.Replay.summary.Service.Daemon.shed = []);
  Alcotest.(check bool) "session reports unchanged by the annotation" true
    (Banking_stream.reports plain = Banking_stream.reports annotated);
  Alcotest.(check bool) "data-leak incidents without the map carry no note" true
    (List.for_all Option.is_none (leaks plain));
  Alcotest.(check bool) "data-leak incidents exist" true (leaks annotated <> []);
  Alcotest.(check bool) "every data-leak incident names the balance printf" true
    (names_balance annotated);
  let leak_capable (o : Service.Replay.outcome) =
    Service.Metrics.counter_value
      (Service.Metrics.counter o.Service.Replay.metrics
         "adprom_leak_capable_incidents_total")
  in
  Alcotest.(check int) "no leak-capable incidents without the map" 0
    (leak_capable plain);
  Alcotest.(check bool) "leak-capable incidents counted" true
    (leak_capable annotated > 0)

let test_runtime_policy_needs_program () =
  let b = Lazy.force banking in
  match Service.Daemon.create ~leakage_policy:b.pol b.profile with
  | exception Invalid_argument _ -> ()
  | d ->
      ignore (Service.Daemon.drain d);
      Alcotest.fail "a leakage policy without vet_against was accepted"

(* The whole static stage armed at once — DFA and query-signature gates
   on explain, the leakage policy on — over calls and queries: the
   shared signature inference must leave every session report (both
   axes) bit-for-bit those of a run with no static artifact. *)
let test_runtime_stage_armed () =
  let b = Lazy.force banking in
  let items = b.mixed in
  let replay ~gate ?leakage_policy () =
    Service.Replay.run
      (Service.Daemon.create ~shards:2 ~queue_capacity:(Array.length items)
         ~vet_against:b.analysis ~static_gate:gate ~qsig_mode:Service.Daemon.Qsig_warn
         ~qsig_profile:b.qsig ~qsig_static_gate:gate ?leakage_policy b.profile)
      items
  in
  let off = replay ~gate:Service.Daemon.Gate_off ()
  and armed =
    replay ~gate:Service.Daemon.Gate_explain ~leakage_policy:b.pol ()
  in
  Alcotest.(check bool) "nothing shed" true
    (off.Service.Replay.summary.Service.Daemon.shed = []
    && armed.Service.Replay.summary.Service.Daemon.shed = []);
  Alcotest.(check bool) "queries checked" true
    (List.exists
       (fun (r : Service.Daemon.session_report) -> r.Service.Daemon.qsig_checks > 0)
       armed.Service.Replay.summary.Service.Daemon.sessions);
  Alcotest.(check bool) "session reports unchanged by the static stage" true
    (Banking_stream.reports off = Banking_stream.reports armed);
  Alcotest.(check bool) "data-leak incidents exist" true (leaks armed <> []);
  Alcotest.(check bool) "every data-leak incident names the balance printf" true
    (names_balance armed)

(* -------------------------------------------------------------------------- *)

let () =
  Alcotest.run "leakage"
    [
      ( "fixtures",
        [
          Alcotest.test_case "leaky findings" `Quick test_fixture_leaky;
          Alcotest.test_case "leaky summary" `Quick test_fixture_leaky_summary;
          Alcotest.test_case "bounded is clean" `Quick test_fixture_leaky_bounded;
        ] );
      ( "flows",
        [
          Alcotest.test_case "string builtins propagate" `Quick
            test_string_builtins_propagate;
          Alcotest.test_case "star without schema" `Quick test_no_schema_keeps_star;
          Alcotest.test_case "row count clean" `Quick test_unqueried_value_clean;
        ] );
      ( "policy",
        [
          Alcotest.test_case "parse levels" `Quick test_policy_parse;
          Alcotest.test_case "parse error" `Quick test_policy_parse_error;
        ] );
      ( "soundness",
        [ QCheck_alcotest.to_alcotest prop_soundness ] );
      ( "runtime",
        [
          Alcotest.test_case "incidents carry the fired sink's capability" `Quick
            test_runtime_leak_annotation;
          Alcotest.test_case "policy needs a program" `Quick
            test_runtime_policy_needs_program;
          Alcotest.test_case "whole stage armed" `Quick test_runtime_stage_armed;
        ] );
    ]
