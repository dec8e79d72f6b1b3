(* Tests for the attack framework: AST mutation, scenario application,
   and the synthetic anomaly generators. *)

module Ast = Applang.Ast
module Parser = Applang.Parser
module Mutate = Attack.Mutate
module Scenario = Attack.Scenario
module Synthetic = Attack.Synthetic
module Symbol = Analysis.Symbol
module Window = Adprom.Window

let sample =
  {|
    fun main() {
      puts("one");
      if (x > 0) {
        puts("two");
      } else {
        puts("three");
      }
      helper(1);
    }
    fun helper(n) {
      printf("%d", n);
      printf("%d", n + 1);
    }
  |}

let program () = Parser.parse_program sample

let stmt src =
  match Parser.parse_program ("fun __s__() {" ^ src ^ "}") with
  | { Ast.funcs = [ f ] } -> f.Ast.body
  | _ -> assert false

(* Call nodes for [callee] in [func]'s control-flow graph. *)
let count_calls p ~func ~callee =
  let cfg = List.assoc func (fst (Analysis.Cfg_build.build_program p)) in
  List.length
    (List.filter (fun (_, s) -> s.Analysis.Cfg.callee = callee) (Analysis.Cfg.call_nodes cfg))

(* --- mutate ----------------------------------------------------------------- *)

let test_insert_in_function () =
  let p = Mutate.insert_in_function (program ()) ~func:"main" ~at:1 (stmt "evil();") in
  Alcotest.(check int) "evil inserted" 1 (count_calls p ~func:"main" ~callee:"evil");
  (match (Option.get (Ast.find_func p "main")).Ast.body with
  | _ :: Ast.Expr (Ast.Call ("evil", [])) :: _ -> ()
  | _ -> Alcotest.fail "inserted at position 1");
  (* clamping *)
  let p2 = Mutate.insert_in_function (program ()) ~func:"main" ~at:99 (stmt "evil();") in
  Alcotest.(check int) "clamped append" 1 (count_calls p2 ~func:"main" ~callee:"evil")

let test_append_to_function () =
  let p = Mutate.append_to_function (program ()) ~func:"helper" (stmt "evil();") in
  match List.rev (Option.get (Ast.find_func p "helper")).Ast.body with
  | Ast.Expr (Ast.Call ("evil", [])) :: _ -> ()
  | _ -> Alcotest.fail "appended last"

let test_rewrite_call_args () =
  let p =
    Mutate.rewrite_call_args (program ()) ~func:"helper" ~callee:"printf" ~occurrence:1
      (fun _ -> [ Ast.Str "%s"; Ast.Var "secret" ])
  in
  (match (Option.get (Ast.find_func p "helper")).Ast.body with
  | [ _; Ast.Expr (Ast.Call ("printf", [ Ast.Str "%s"; Ast.Var "secret" ])) ] -> ()
  | _ -> Alcotest.fail "second printf rewritten");
  match
    Mutate.rewrite_call_args (program ()) ~func:"helper" ~callee:"printf" ~occurrence:5
      (fun args -> args)
  with
  | _ -> Alcotest.fail "occurrence out of range must raise"
  | exception Not_found -> ()

let test_rewrite_strings () =
  (* Fig. 1: widening selectivity by editing the embedded query. *)
  let src = {|fun main() { let r = pq_exec(c, "SELECT * FROM items WHERE id = 10"); }|} in
  let p =
    Mutate.rewrite_strings (Parser.parse_program src) ~func:"main" (fun s ->
        String.concat ">=" (String.split_on_char '=' s))
  in
  match (Option.get (Ast.find_func p "main")).Ast.body with
  | [ Ast.Let (_, Ast.Call ("pq_exec", [ _; Ast.Str q ])) ] ->
      Alcotest.(check string) "selectivity widened" "SELECT * FROM items WHERE id >= 10" q
  | _ -> Alcotest.fail "unexpected shape"

let test_unknown_function_raises () =
  match Mutate.insert_in_function (program ()) ~func:"ghost" ~at:0 (stmt "x();") with
  | _ -> Alcotest.fail "unknown function must raise"
  | exception Not_found -> ()

(* --- scenario ---------------------------------------------------------------- *)

let tiny_app =
  {
    Adprom.Pipeline.name = "tiny";
    source = "fun main() { puts(scanf()); }";
    dbms = "-";
    setup_db = (fun _ -> ());
    test_cases = [ Runtime.Testcase.make ~input:[ "hello" ] "t1" ];
  }

let test_scenario_source_change () =
  let scenario =
    {
      Scenario.id = "x";
      description = "append a probe";
      vector =
        Scenario.Source_change
          (fun p -> Mutate.append_to_function p ~func:"main" (stmt "lib_probe(1);"));
    }
  in
  let malicious, patches, _ = Scenario.apply scenario tiny_app in
  Alcotest.(check bool) "no patches for source change" true (patches = []);
  let p = Parser.parse_program malicious.Adprom.Pipeline.source in
  Alcotest.(check int) "probe present after pretty/parse round trip" 1
    (count_calls p ~func:"main" ~callee:"lib_probe")

let test_scenario_run_traces () =
  let scenario =
    { Scenario.id = "input"; description = "poison";
      vector = Scenario.Malicious_input (fun tc -> { tc with Runtime.Testcase.input = [ "POISON" ] }) }
  in
  let traces = Scenario.run scenario tiny_app in
  Alcotest.(check int) "one trace per test case" 1 (List.length traces)

let test_scenario_mitm () =
  (* MITM rewrites raw SQL on the wire; prepared statements are immune. *)
  let app =
    {
      Adprom.Pipeline.name = "mitm-app";
      source =
        {|
          fun main() {
            let conn = db_connect("pg");
            let raw = pq_exec(conn, "SELECT name FROM t WHERE id = 1");
            printf("raw=%s
", pq_getvalue(raw, 0, 0));
            let stmt = pq_prepare(conn, "SELECT name FROM t WHERE id = ?");
            let safe = pq_exec_prepared(conn, stmt, 1);
            printf("safe=%d
", pq_ntuples(safe));
          }
        |};
      dbms = "-";
      setup_db =
        (fun e ->
          ignore (Sqldb.Engine.exec e "CREATE TABLE t (id, name)");
          ignore (Sqldb.Engine.exec e "INSERT INTO t VALUES (1, 'one'), (2, 'two')"));
      test_cases = [ Runtime.Testcase.make "t" ];
    }
  in
  let scenario =
    {
      Scenario.id = "mitm";
      description = "widen on the wire";
      vector = Scenario.Mitm (fun _sql -> "SELECT name FROM t");
    }
  in
  match Scenario.run scenario app with
  | [ (_, trace) ] ->
      (* The raw query now returns 2 rows... observable through ntuples
         of the raw result staying the query of the full table; the
         prepared one is untouched (1 row). Verify through the app's
         own behaviour by re-running with the rewriter directly. *)
      Alcotest.(check bool) "trace produced" true (Array.length trace > 0);
      let analysis = Adprom.Pipeline.analyze_app app in
      let _, out =
        Adprom.Pipeline.run_case
          ~query_rewriter:(fun _ -> "SELECT name FROM t")
          ~analysis app (List.hd app.Adprom.Pipeline.test_cases)
      in
      Alcotest.(check string) "raw query hijacked, prepared immune" "raw=one
safe=1
"
        out.Runtime.Interp.stdout
  | _ -> Alcotest.fail "expected one trace"

(* --- synthetic ---------------------------------------------------------------- *)

let base_window () =
  let events =
    Array.of_list
      (List.map
         (fun n -> { Runtime.Collector.symbol = Symbol.lib n; caller = "main"; block = -1 })
         [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h"; "i"; "j" ])
  in
  List.hd (Window.of_trace ~window:10 events)

let legit = [| Symbol.lib "a"; Symbol.lib "b"; Symbol.lib "c" |]

let test_s1_replaces_tail () =
  let rng = Mlkit.Rng.create 1 in
  let w = base_window () in
  let w' = List.hd (Synthetic.batch ~rng ~legitimate:legit ~kind:`S1 ~count:1 [ w ]) in
  Alcotest.(check int) "length preserved" 10 (Array.length w'.Window.obs);
  (* first 5 untouched *)
  for i = 0 to 4 do
    Alcotest.(check bool) "prefix intact" true (Symbol.equal w.Window.obs.(i) w'.Window.obs.(i))
  done;
  (* tail drawn from the legitimate set *)
  for i = 5 to 9 do
    Alcotest.(check bool) "tail is legitimate" true
      (Array.exists (Symbol.equal w'.Window.obs.(i)) legit)
  done;
  (* the original window must not be mutated *)
  Alcotest.(check string) "input untouched" "j" (Symbol.name w.Window.obs.(9))

let test_s2_foreign_calls () =
  let rng = Mlkit.Rng.create 2 in
  let w' = List.hd (Synthetic.batch ~rng ~legitimate:legit ~kind:`S2 ~count:1 [ base_window () ]) in
  let foreign =
    Array.to_list w'.Window.obs
    |> List.filter (fun s ->
           let n = Symbol.name s in
           String.length n >= 5 && String.sub n 0 5 = "evil_")
  in
  Alcotest.(check bool) "at least one foreign call" true (List.length foreign >= 1)

let test_s3_burst () =
  let rng = Mlkit.Rng.create 3 in
  let w' = List.hd (Synthetic.batch ~rng ~legitimate:legit ~kind:`S3 ~count:1 [ base_window () ]) in
  (* some symbol now occurs at least 5 times *)
  let counts = Hashtbl.create 8 in
  Array.iter
    (fun s ->
      let k = Symbol.name s in
      Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
    w'.Window.obs;
  let max_count = Hashtbl.fold (fun _ v acc -> max v acc) counts 0 in
  Alcotest.(check bool) "frequency inflated" true (max_count >= 5)

let test_batch_deterministic () =
  let mk () =
    Synthetic.batch ~rng:(Mlkit.Rng.create 9) ~legitimate:legit ~kind:`S1 ~count:20
      [ base_window () ]
  in
  let a = mk () and b = mk () in
  Alcotest.(check bool) "same seed, same anomalies" true
    (List.for_all2 (fun x y -> x.Window.obs = y.Window.obs) a b);
  Alcotest.check_raises "empty pool rejected"
    (Invalid_argument "Synthetic.batch: empty pool") (fun () ->
      ignore (Synthetic.batch ~rng:(Mlkit.Rng.create 1) ~legitimate:legit ~kind:`S2 ~count:1 []))

let () =
  Alcotest.run "attack"
    [
      ( "mutate",
        [
          Alcotest.test_case "insert in function" `Quick test_insert_in_function;
          Alcotest.test_case "append to function" `Quick test_append_to_function;
          Alcotest.test_case "rewrite call args" `Quick test_rewrite_call_args;
          Alcotest.test_case "rewrite strings (Fig. 1)" `Quick test_rewrite_strings;
          Alcotest.test_case "unknown function raises" `Quick test_unknown_function_raises;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "source change round trips" `Quick test_scenario_source_change;
          Alcotest.test_case "run produces traces" `Quick test_scenario_run_traces;
          Alcotest.test_case "MITM rewrites only the wire" `Quick test_scenario_mitm;
        ] );
      ( "synthetic",
        [
          Alcotest.test_case "A-S1 replaces the tail" `Quick test_s1_replaces_tail;
          Alcotest.test_case "A-S2 inserts foreign calls" `Quick test_s2_foreign_calls;
          Alcotest.test_case "A-S3 inflates frequency" `Quick test_s3_burst;
          Alcotest.test_case "batch determinism and errors" `Quick test_batch_deterministic;
        ] );
    ]
