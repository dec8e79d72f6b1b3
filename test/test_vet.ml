(* Tests for the static verification pass: the vet checks on the
   defect-seeded fixture programs under examples/vet/, the profile
   coverage cross-check, and the serving-layer Profile_check policy. *)

module Parser = Applang.Parser
module Cfg_build = Analysis.Cfg_build
module Taint = Analysis.Taint
module Vet = Analysis.Vet
module Diag = Analysis.Diag
module Symbol = Analysis.Symbol
module Pipeline = Adprom.Pipeline
module Profile_check = Adprom.Profile_check

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let vet_source src =
  let cfgs = fst (Cfg_build.build_program (Parser.parse_program src)) in
  ignore (Taint.analyze cfgs);
  Vet.check_program cfgs

let fixture name = read_file (Filename.concat "../examples/vet" name)

(* --- golden outputs on the defect fixtures ------------------------------- *)

let check_golden name expected () =
  Alcotest.(check (list string))
    name expected
    (List.map Diag.to_string (vet_source (fixture name)))

let test_fixture_clean =
  check_golden "clean.app" []

let test_fixture_dead_block =
  check_golden "dead_block.app"
    [ "warning[dead-code] main#7: unreachable code: call to `printf`" ]

let test_fixture_no_exit_loop =
  check_golden "no_exit_loop.app"
    [ "warning[no-exit-loop] main#4: loop has no reachable exit" ]

let test_fixture_undefined_callee =
  check_golden "undefined_callee.app"
    [ "error[undefined-callee] main#4: call to undefined function `sanitize`" ]

let test_fixture_unreachable_function =
  check_golden "unreachable_function.app"
    [ "warning[unreachable-function] orphan: function `orphan` is never called \
       from `main`" ]

let test_fixture_use_before_init =
  check_golden "use_before_init.app"
    [ "warning[use-before-init] main#9: variable `label` may be used before \
       initialization" ]

(* The injectable/prepared twins: same lookup, the only difference is
   whether the user-supplied id is concatenated into the SQL text or
   bound as a statement parameter. *)
let test_fixture_sqli_concat =
  check_golden "sqli_concat.app"
    [ "warning[sql-injectable-site] main#9: untrusted input reaches SQL \
       structure in the text passed to `mysql_query` (witness: scanf -> acc -> \
       q); bind it as a query parameter instead" ]

let test_fixture_sqli_prepared =
  check_golden "sqli_prepared.app" []

(* --- suppression: loops with a genuine way out are not flagged ----------- *)

let has_code code diags = List.exists (fun d -> d.Diag.code = code) diags

let test_break_suppresses_no_exit_loop () =
  let diags =
    vet_source
      {| fun main() {
           let x = scanf();
           while (true) {
             if (x == null) { break; }
             x = scanf();
           }
           printf("%s\n", x);
         } |}
  in
  Alcotest.(check bool) "break suppresses" false (has_code "no-exit-loop" diags)

let test_return_suppresses_no_exit_loop () =
  let diags =
    vet_source
      {| fun main() {
           while (true) {
             let x = scanf();
             if (x == null) { return; }
             printf("%s\n", x);
           }
         } |}
  in
  Alcotest.(check bool) "return suppresses" false (has_code "no-exit-loop" diags)

let test_bounded_loop_not_flagged () =
  let diags =
    vet_source
      {| fun main() {
           for (let i = 0; i < 9; i = i + 1) { printf("%d\n", i); }
         } |}
  in
  Alcotest.(check bool) "bounded loop clean" false (has_code "no-exit-loop" diags)

let test_missing_entry_warns () =
  let diags = vet_source "fun helper() { puts(\"hi\"); }" in
  Alcotest.(check bool) "no-entry warning" true (has_code "no-entry" diags);
  Alcotest.(check int) "no errors" 0 (List.length (Diag.errors diags))

(* --- profile coverage cross-check ---------------------------------------- *)

let two_call_facts () =
  let cfgs = fst (Cfg_build.build_program (Parser.parse_program (fixture "coverage.app"))) in
  ignore (Taint.analyze cfgs);
  Vet.facts cfgs

let test_coverage_consistent () =
  let facts = two_call_facts () in
  let alphabet = [ Symbol.lib "printf"; Symbol.lib "puts" ] in
  let known_pairs = [ ("main", Symbol.lib "printf"); ("main", Symbol.lib "puts") ] in
  Alcotest.(check (list string)) "clean coverage" []
    (List.map Diag.to_string (Vet.check_coverage facts ~alphabet ~known_pairs))

let test_coverage_training_gap_warns () =
  let facts = two_call_facts () in
  let diags =
    Vet.check_coverage facts ~alphabet:[ Symbol.lib "puts" ]
      ~known_pairs:[ ("main", Symbol.lib "puts") ]
  in
  Alcotest.(check int) "no errors" 0 (List.length (Diag.errors diags));
  Alcotest.(check bool) "uncovered symbol" true (has_code "uncovered-symbol" diags);
  Alcotest.(check bool) "uncovered pair" true (has_code "uncovered-pair" diags)

let test_coverage_impossible_profile_errors () =
  let facts = two_call_facts () in
  let diags =
    Vet.check_coverage facts
      ~alphabet:[ Symbol.lib "gets"; Symbol.lib "printf"; Symbol.lib "puts" ]
      ~known_pairs:
        [ ("main", Symbol.lib "gets"); ("main", Symbol.lib "printf");
          ("main", Symbol.lib "puts") ]
  in
  Alcotest.(check bool) "unreachable symbol" true
    (has_code "profile-symbol-unreachable" diags);
  Alcotest.(check bool) "impossible pair" true
    (has_code "profile-pair-impossible" diags);
  Alcotest.(check int) "both are errors" 2 (List.length (Diag.errors diags))

let test_coverage_ignores_entry_exit () =
  let facts = two_call_facts () in
  let diags =
    Vet.check_coverage facts
      ~alphabet:[ Symbol.Entry; Symbol.Exit; Symbol.lib "printf"; Symbol.lib "puts" ]
      ~known_pairs:[ ("main", Symbol.lib "printf"); ("main", Symbol.lib "puts") ]
  in
  Alcotest.(check int) "eps endpoints not flagged" 0 (List.length diags)

(* --- the built-in corpus stays error-free under vet ----------------------- *)

let builtin_sources () =
  [
    ("hospital", (Dataset.Ca_hospital.app ()).Pipeline.source);
    ("banking", (Dataset.Ca_banking.app ()).Pipeline.source);
    ("supermarket", (Dataset.Ca_supermarket.app ()).Pipeline.source);
    ("grep", (Dataset.Sir.app1 ()).Pipeline.source);
    ("gzip", (Dataset.Sir.app2 ()).Pipeline.source);
    ("sed", (Dataset.Sir.app3 ()).Pipeline.source);
    ("bash", (Dataset.Sir.app4 ()).Pipeline.source);
  ]

let test_builtin_apps_vet_error_free () =
  List.iter
    (fun (name, src) ->
      let errors = Diag.errors (vet_source src) in
      Alcotest.(check (list string))
        (Printf.sprintf "%s has no vet errors" name)
        []
        (List.map Diag.to_string errors))
    (builtin_sources ())

(* --- Profile_check: trained profile vs its own program -------------------- *)

let small_app =
  {
    Pipeline.name = "vet-test-app";
    source =
      {|
        fun main() {
          let conn = db_connect("pg");
          let id = scanf();
          let q = strcat(strcat("SELECT name FROM t WHERE id = '", id), "'");
          let r = pq_exec(conn, q);
          let n = pq_ntuples(r);
          for (let i = 0; i < n; i = i + 1) {
            printf("%s\n", pq_getvalue(r, i, 0));
          }
          puts("bye");
        }
      |};
    dbms = "PostgreSQL";
    setup_db =
      (fun e ->
        ignore (Sqldb.Engine.exec e "CREATE TABLE t (id, name)");
        for i = 0 to 9 do
          ignore
            (Sqldb.Engine.exec e (Printf.sprintf "INSERT INTO t VALUES (%d, 'n%d')" i i))
        done);
    test_cases =
      List.init 10 (fun i ->
          Runtime.Testcase.make ~input:[ string_of_int i ] (Printf.sprintf "c%d" i));
  }

let trained =
  lazy
    (let ds = Pipeline.collect small_app in
     (ds, Pipeline.train ds))

let test_profile_check_own_program_error_free () =
  let ds, profile = Lazy.force trained in
  let diags = Profile_check.check ~entry:"main" profile ds.Pipeline.analysis in
  Alcotest.(check (list string)) "no errors against own program" []
    (List.map Diag.to_string (Diag.errors diags))

let test_profile_check_policies () =
  let ds, profile = Lazy.force trained in
  let analysis = ds.Pipeline.analysis in
  let facts = Vet.facts analysis.Analysis.Analyzer.cfgs in
  Alcotest.(check int) "Off reports nothing" 0
    (List.length (Profile_check.apply Profile_check.Off ~facts profile analysis));
  (* Enforce must not raise on a profile vetted against its own program. *)
  ignore (Profile_check.apply Profile_check.Enforce ~facts profile analysis)

let test_profile_check_enforce_rejects_foreign_program () =
  let _, profile = Lazy.force trained in
  let foreign =
    Analysis.Analyzer.analyze (Parser.parse_program "fun main() { puts(\"hi\"); }")
  in
  Alcotest.check_raises "Enforce refuses a mismatched program"
    (Invalid_argument "")
    (fun () ->
      match
        Profile_check.apply Profile_check.Enforce
          ~facts:(Vet.facts foreign.Analysis.Analyzer.cfgs) profile foreign
      with
      | _ -> ()
      | exception Invalid_argument _ -> raise (Invalid_argument ""))

let test_static_pairs_load_into_engine () =
  let ds, profile = Lazy.force trained in
  let pairs = (Vet.facts ds.Pipeline.analysis.Analysis.Analyzer.cfgs).Vet.pairs in
  Alcotest.(check bool) "some static pairs" true (pairs <> []);
  Alcotest.(check bool) "all from main" true
    (List.for_all (fun (caller, _) -> caller = "main") pairs);
  let engine = Adprom.Scoring.create profile in
  Alcotest.(check bool) "not loaded yet" false
    (Adprom.Scoring.static_pairs_loaded engine);
  Adprom.Scoring.set_static_pairs engine (Some pairs);
  Alcotest.(check bool) "loaded" true (Adprom.Scoring.static_pairs_loaded engine)

let test_daemon_enforce_rejects_foreign_program () =
  let _, profile = Lazy.force trained in
  let foreign =
    Analysis.Analyzer.analyze (Parser.parse_program "fun main() { puts(\"hi\"); }")
  in
  match
    Adprom_service.Daemon.create ~shards:1 ~vet_against:foreign
      ~vet_policy:Profile_check.Enforce profile
  with
  | exception Invalid_argument _ -> ()
  | daemon ->
      ignore (Adprom_service.Daemon.drain daemon);
      Alcotest.fail "daemon accepted a profile failing vet under Enforce"

let test_daemon_warn_serves_foreign_program () =
  let _, profile = Lazy.force trained in
  let foreign =
    Analysis.Analyzer.analyze (Parser.parse_program "fun main() { puts(\"hi\"); }")
  in
  let daemon =
    Adprom_service.Daemon.create ~shards:1 ~vet_against:foreign
      ~vet_policy:Profile_check.Warn profile
  in
  let summary = Adprom_service.Daemon.drain daemon in
  Alcotest.(check int) "no events" 0 summary.Adprom_service.Daemon.events_offered

(* -------------------------------------------------------------------------- *)

let () =
  Alcotest.run "vet"
    [
      ( "fixtures",
        [
          Alcotest.test_case "clean" `Quick test_fixture_clean;
          Alcotest.test_case "dead-code" `Quick test_fixture_dead_block;
          Alcotest.test_case "no-exit-loop" `Quick test_fixture_no_exit_loop;
          Alcotest.test_case "undefined-callee" `Quick test_fixture_undefined_callee;
          Alcotest.test_case "unreachable-function" `Quick
            test_fixture_unreachable_function;
          Alcotest.test_case "use-before-init" `Quick test_fixture_use_before_init;
          Alcotest.test_case "sqli-concat" `Quick test_fixture_sqli_concat;
          Alcotest.test_case "sqli-prepared" `Quick test_fixture_sqli_prepared;
        ] );
      ( "loops",
        [
          Alcotest.test_case "break suppresses" `Quick test_break_suppresses_no_exit_loop;
          Alcotest.test_case "return suppresses" `Quick
            test_return_suppresses_no_exit_loop;
          Alcotest.test_case "bounded loop clean" `Quick test_bounded_loop_not_flagged;
          Alcotest.test_case "missing entry warns" `Quick test_missing_entry_warns;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "consistent" `Quick test_coverage_consistent;
          Alcotest.test_case "training gap warns" `Quick test_coverage_training_gap_warns;
          Alcotest.test_case "impossible profile errors" `Quick
            test_coverage_impossible_profile_errors;
          Alcotest.test_case "ignores eps endpoints" `Quick
            test_coverage_ignores_entry_exit;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "built-in apps error-free" `Quick
            test_builtin_apps_vet_error_free;
        ] );
      ( "profile-check",
        [
          Alcotest.test_case "own program error-free" `Quick
            test_profile_check_own_program_error_free;
          Alcotest.test_case "policies" `Quick test_profile_check_policies;
          Alcotest.test_case "enforce rejects foreign" `Quick
            test_profile_check_enforce_rejects_foreign_program;
          Alcotest.test_case "static pairs into engine" `Quick
            test_static_pairs_load_into_engine;
          Alcotest.test_case "daemon enforce rejects" `Quick
            test_daemon_enforce_rejects_foreign_program;
          Alcotest.test_case "daemon warn serves" `Quick
            test_daemon_warn_serves_foreign_program;
        ] );
    ]
