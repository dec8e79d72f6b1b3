(* Tests for the dataset library: every subject application must parse,
   analyze and execute its test cases without run-time errors, and the
   generators must be deterministic. *)

module Pipeline = Adprom.Pipeline

let check_app ?(cases = 8) (app : Pipeline.app) =
  let app = { app with Pipeline.test_cases = List.filteri (fun i _ -> i < cases) app.Pipeline.test_cases } in
  let analysis = Pipeline.analyze_app app in
  Alcotest.(check bool)
    (app.Pipeline.name ^ ": pCTM invariants")
    true
    (Analysis.Ctm.conserved analysis.Analysis.Analyzer.pctm);
  List.iter
    (fun tc ->
      let trace, out = Pipeline.run_case ~analysis app tc in
      (match out.Runtime.Interp.status with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s/%s: %s" app.Pipeline.name tc.Runtime.Testcase.name msg);
      Alcotest.(check bool)
        (app.Pipeline.name ^ ": trace non-empty")
        true
        (Array.length trace > 0))
    app.Pipeline.test_cases

let test_hospital () = check_app (Dataset.Ca_hospital.app ())
let test_banking () = check_app (Dataset.Ca_banking.app ())
let test_supermarket () = check_app (Dataset.Ca_supermarket.app ())
let test_grep () = check_app (Dataset.Sir.app1 ())
let test_gzip () = check_app (Dataset.Sir.app2 ())
let test_sed () = check_app (Dataset.Sir.app3 ())

let test_bash_scale () =
  check_app ~cases:4 (Dataset.Sir.app4 ~cases:4 ~spec:Dataset.Proggen.default ())

let test_labeled_outputs_exist () =
  (* Every DB app must have DDG-labeled output statements. *)
  List.iter
    (fun app ->
      let analysis = Pipeline.analyze_app app in
      Alcotest.(check bool)
        (app.Pipeline.name ^ " has labels")
        true
        (analysis.Analysis.Analyzer.taint.Analysis.Taint.labeled_blocks <> []))
    [ Dataset.Ca_hospital.app (); Dataset.Ca_banking.app (); Dataset.Ca_supermarket.app () ]

let test_proggen_deterministic () =
  let spec = Dataset.Proggen.default in
  Alcotest.(check string) "same spec, same program" (Dataset.Proggen.generate spec)
    (Dataset.Proggen.generate spec);
  let other = Dataset.Proggen.generate { spec with Dataset.Proggen.seed = spec.Dataset.Proggen.seed + 1 } in
  Alcotest.(check bool) "different seed, different program" true
    (other <> Dataset.Proggen.generate spec)

let test_proggen_parses_and_scales () =
  let small = Dataset.Proggen.generate Dataset.Proggen.default in
  let big = Dataset.Proggen.generate Dataset.Proggen.bash_like in
  let count_sites src =
    let analysis = Analysis.Analyzer.analyze (Applang.Parser.parse_program src) in
    List.length (Analysis.Ctm.calls analysis.Analysis.Analyzer.pctm)
  in
  Alcotest.(check bool) "bash-like is much larger" true (count_sites big > 2 * count_sites small)

let test_testcase_counts () =
  Alcotest.(check int) "hospital default cases" 63
    (List.length (Dataset.Ca_hospital.app ()).Pipeline.test_cases);
  Alcotest.(check int) "banking default cases" 73
    (List.length (Dataset.Ca_banking.app ()).Pipeline.test_cases);
  Alcotest.(check int) "supermarket default cases" 36
    (List.length (Dataset.Ca_supermarket.app ()).Pipeline.test_cases)

let test_site_coverage_bounds () =
  let app = Dataset.Sir.app1 () in
  let analysis = Pipeline.analyze_app app in
  let traces =
    List.map (fun tc -> (tc, fst (Pipeline.run_case ~analysis app tc))) app.Pipeline.test_cases
  in
  let cov = Dataset.Sir.site_coverage analysis traces in
  Alcotest.(check bool) "coverage in (0, 1]" true (cov > 0.0 && cov <= 1.0);
  Alcotest.(check (float 0.0)) "no traces, no coverage" 0.0
    (Dataset.Sir.site_coverage analysis [])

let test_attack_catalog () =
  let cases = Dataset.Ca_attacks.all () in
  Alcotest.(check int) "five attacks" 5 (List.length cases);
  (* Each scenario must apply cleanly and produce runnable variants. *)
  List.iter
    (fun (c : Dataset.Ca_attacks.case) ->
      let app =
        {
          c.Dataset.Ca_attacks.app with
          Pipeline.test_cases =
            List.filteri (fun i _ -> i < 3) c.Dataset.Ca_attacks.app.Pipeline.test_cases;
        }
      in
      let traces = Attack.Scenario.run c.Dataset.Ca_attacks.scenario app in
      Alcotest.(check bool)
        (c.Dataset.Ca_attacks.label ^ " produces traces")
        true
        (List.for_all (fun (_, t) -> Array.length t > 0) traces))
    cases

let test_adversary_model_catalog () =
  let flavors = Dataset.Ca_attacks.adversary_model () in
  Alcotest.(check int) "eight flavors" 8 (List.length flavors);
  (* Every scenario applies and produces runnable traces on a slice. *)
  List.iter
    (fun (flavor, (c : Dataset.Ca_attacks.case)) ->
      let app =
        {
          c.Dataset.Ca_attacks.app with
          Pipeline.test_cases =
            List.filteri (fun i _ -> i < 2) c.Dataset.Ca_attacks.app.Pipeline.test_cases;
        }
      in
      let traces = Attack.Scenario.run c.Dataset.Ca_attacks.scenario app in
      Alcotest.(check bool) (flavor ^ " runs") true
        (List.for_all (fun (_, t) -> Array.length t > 0) traces))
    flavors

let test_banking_vulnerability () =
  (* The tautology through the vulnerable lookup must print every
     client, unlike an honest lookup. *)
  let app = Dataset.Ca_banking.app () in
  let analysis = Pipeline.analyze_app app in
  let run input =
    let tc = Runtime.Testcase.make ~input "probe" in
    let _, out = Pipeline.run_case ~analysis app tc in
    out.Runtime.Interp.leaked_values
  in
  let honest = run [ "1"; "105"; "0" ] in
  let poisoned = run [ "1"; Dataset.Ca_banking.tautology; "0" ] in
  Alcotest.(check bool) "tautology leaks much more" true (poisoned > 10 * honest)

(* Static/dynamic consistency: up to DB-output labels, every call the
   collector emits on a clean run must come from a static call site.
   (Labels can differ: a statically may-tainted site runs unlabeled when
   its arguments are dynamically clean, and vice versa never.) *)
let test_traces_within_static_alphabet () =
  List.iter
    (fun (app : Pipeline.app) ->
      let app =
        { app with Pipeline.test_cases = List.filteri (fun i _ -> i < 6) app.Pipeline.test_cases }
      in
      let analysis = Pipeline.analyze_app app in
      let strip s = Analysis.Symbol.strip_label (Analysis.Symbol.observable s) in
      let alphabet =
        List.fold_left
          (fun acc c -> Analysis.Symbol.Set.add (strip c) acc)
          Analysis.Symbol.Set.empty
          (Analysis.Ctm.calls analysis.Analysis.Analyzer.pctm)
      in
      List.iter
        (fun tc ->
          let trace, _ = Pipeline.run_case ~analysis app tc in
          Array.iter
            (fun (e : Runtime.Collector.event) ->
              let obs = strip e.Runtime.Collector.symbol in
              if not (Analysis.Symbol.Set.mem obs alphabet) then
                Alcotest.failf "%s: dynamic symbol %s outside the static alphabet"
                  app.Pipeline.name
                  (Analysis.Symbol.to_string obs))
            trace)
        app.Pipeline.test_cases)
    [
      Dataset.Ca_hospital.app (); Dataset.Ca_banking.app (); Dataset.Ca_supermarket.app ();
      Dataset.Sir.app1 (); Dataset.Sir.app3 (); Dataset.Web_portal.app ();
    ]

let prop_random_programs_run =
  QCheck2.Test.make ~name:"generated programs analyze and run cleanly" ~count:12
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let spec =
        { Dataset.Proggen.default with Dataset.Proggen.seed; functions = 8; alphabet = 20 }
      in
      let source = Dataset.Proggen.generate spec in
      let program = Applang.Parser.parse_program source in
      let analysis = Analysis.Analyzer.analyze program in
      Analysis.Ctm.conserved analysis.Analysis.Analyzer.pctm
      && List.for_all
           (fun tc ->
             let engine = Sqldb.Engine.create () in
             let out = Runtime.Interp.run ~collector:Runtime.Collector.null ~analysis ~engine tc in
             out.Runtime.Interp.status = Ok ())
           (Dataset.Proggen.test_cases spec ~count:3))

let () =
  Alcotest.run "dataset"
    [
      ( "applications",
        [
          Alcotest.test_case "App_h hospital" `Quick test_hospital;
          Alcotest.test_case "App_b banking" `Quick test_banking;
          Alcotest.test_case "App_s supermarket" `Quick test_supermarket;
          Alcotest.test_case "App1 grep-like" `Quick test_grep;
          Alcotest.test_case "App2 gzip-like" `Quick test_gzip;
          Alcotest.test_case "App3 sed-like" `Quick test_sed;
          Alcotest.test_case "App4 generated" `Quick test_bash_scale;
          Alcotest.test_case "DB apps have DDG labels" `Quick test_labeled_outputs_exist;
          Alcotest.test_case "default test-case counts" `Quick test_testcase_counts;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "traces stay within the static alphabet" `Quick
            test_traces_within_static_alphabet;
          QCheck_alcotest.to_alcotest prop_random_programs_run;
        ] );
      ( "generators",
        [
          Alcotest.test_case "proggen determinism" `Quick test_proggen_deterministic;
          Alcotest.test_case "proggen scales" `Quick test_proggen_parses_and_scales;
          Alcotest.test_case "site coverage bounds" `Quick test_site_coverage_bounds;
        ] );
      ( "attacks",
        [
          Alcotest.test_case "catalog applies" `Quick test_attack_catalog;
          Alcotest.test_case "adversary model catalog" `Quick test_adversary_model_catalog;
          Alcotest.test_case "banking vulnerability is real" `Quick test_banking_vulnerability;
        ] );
    ]
