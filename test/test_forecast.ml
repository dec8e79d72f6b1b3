(* Golden reproduction of Tables I and II: the probability forecast on
   the (reconstructed) two-function program of Fig. 3 of the paper, plus
   the aggregation into the pCTM and its invariants. *)

module Ast = Applang.Ast
module Parser = Applang.Parser
module Symbol = Analysis.Symbol
module Cfg = Analysis.Cfg
module Ctm = Analysis.Ctm

(* Reconstruction of Fig. 3: main() branches to printf' or printf''; the
   printf'' branch may run PQexec and then f(); f() branches between a
   plain printf, a DB-output printf (labeled printf_Q), and no call. *)
let fig3_source =
  {|
fun main() {
  if (x > 0) {
    printf("one");
  } else {
    printf("two");
    if (y > 0) {
      let r = pq_exec(conn, "SELECT * FROM items");
      f(r);
    }
  }
}

fun f(r) {
  if (a > 0) {
    printf("plain");
  } else {
    if (b > 0) {
      printf("%s", r);
    }
  }
}
|}

let analysis = lazy (Analysis.Analyzer.analyze (Parser.parse_program fig3_source))

let ctm_of name =
  let a = Lazy.force analysis in
  List.assoc name a.Analysis.Analyzer.ctms

(* Site symbols found by bare call name within a function's CTM. *)
let sites_named ctm name =
  List.filter
    (fun s ->
      match s with
      | Symbol.Lib { name = n; _ } -> n = name
      | Symbol.Entry | Symbol.Exit | Symbol.Func _ -> false)
    (Ctm.calls ctm)

let row_sum ctm s = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 (Ctm.row ctm s)

let check_value ctm what a b expected =
  Alcotest.(check (float 1e-9)) what expected (Ctm.get ctm a b)

let test_table1 () =
  let m = ctm_of "main" in
  let printfs = sites_named m "printf" in
  Alcotest.(check int) "two printf sites in main" 2 (List.length printfs);
  let printf', printf'' =
    match printfs with [ a; b ] -> (a, b) | _ -> assert false
  in
  let pqexec = match sites_named m "pq_exec" with [ s ] -> s | _ -> assert false in
  let f = Symbol.Func "f" in
  check_value m "eps -> printf'" Symbol.Entry printf' 0.5;
  check_value m "eps -> printf''" Symbol.Entry printf'' 0.5;
  check_value m "printf' -> eps'" printf' Symbol.Exit 0.5;
  check_value m "printf'' -> eps'" printf'' Symbol.Exit 0.25;
  check_value m "printf'' -> pq_exec" printf'' pqexec 0.25;
  check_value m "pq_exec -> f()" pqexec f 0.25;
  check_value m "f() -> eps'" f Symbol.Exit 0.25;
  check_value m "eps -> pq_exec is 0 (printf'' intervenes)" Symbol.Entry pqexec 0.0;
  check_value m "eps -> eps'" Symbol.Entry Symbol.Exit 0.0

let test_table2 () =
  let fc = ctm_of "f" in
  let printfs = sites_named fc "printf" in
  Alcotest.(check int) "two printf sites in f" 2 (List.length printfs);
  let plain, labeled =
    match List.partition (fun s -> not (Symbol.is_labeled s)) printfs with
    | [ p ], [ q ] -> (p, q)
    | _ -> Alcotest.fail "expected one plain and one labeled printf in f"
  in
  check_value fc "eps -> eps'" Symbol.Entry Symbol.Exit 0.25;
  check_value fc "eps -> printf" Symbol.Entry plain 0.5;
  check_value fc "eps -> printf_Q" Symbol.Entry labeled 0.25;
  check_value fc "printf -> eps'" plain Symbol.Exit 0.5;
  check_value fc "printf_Q -> eps'" labeled Symbol.Exit 0.25

let test_labeling () =
  let a = Lazy.force analysis in
  Alcotest.(check int) "exactly one labeled block" 1
    (List.length a.Analysis.Analyzer.taint.Analysis.Taint.labeled_blocks)

let test_pctm_values () =
  let a = Lazy.force analysis in
  let p = a.Analysis.Analyzer.pctm in
  Alcotest.(check bool) "no Func symbols remain" true
    (List.for_all
       (fun s -> match s with Symbol.Func _ -> false | _ -> true)
       (Ctm.symbols p));
  let m = ctm_of "main" in
  let pqexec = match sites_named m "pq_exec" with [ s ] -> s | _ -> assert false in
  let fc = ctm_of "f" in
  let f_printfs = sites_named fc "printf" in
  let plain, labeled =
    match List.partition (fun s -> not (Symbol.is_labeled s)) f_printfs with
    | [ p ], [ q ] -> (p, q)
    | _ -> assert false
  in
  check_value p "pq_exec -> printf (inlined)" pqexec plain 0.125;
  check_value p "pq_exec -> printf_Q (inlined)" pqexec labeled 0.0625;
  check_value p "pq_exec -> eps' (pass-through)" pqexec Symbol.Exit 0.0625;
  check_value p "printf -> eps' (case 2)" plain Symbol.Exit 0.125;
  check_value p "printf_Q -> eps' (case 2)" labeled Symbol.Exit 0.0625

let test_pctm_invariants () =
  let a = Lazy.force analysis in
  let p = a.Analysis.Analyzer.pctm in
  Alcotest.(check (float 1e-9)) "entry row sums to 1" 1.0 (row_sum p Symbol.Entry);
  Alcotest.(check (float 1e-9)) "exit column sums to 1" 1.0 (Ctm.column_sum p Symbol.Exit);
  Alcotest.(check bool) "flow conserved" true (Ctm.conserved p)

let test_reachability () =
  let a = Lazy.force analysis in
  let cfg = List.assoc "main" a.Analysis.Analyzer.cfgs in
  let reach = Analysis.Forecast.reachability cfg in
  Alcotest.(check (float 1e-9)) "entry reach" 1.0 (List.assoc cfg.Cfg.entry reach);
  Alcotest.(check (float 1e-9)) "exit reach" 1.0 (List.assoc cfg.Cfg.exit reach)

(* Property: for random structured programs, the pCTM invariants hold. *)
let random_program seed =
  let rng = Mlkit.Rng.create seed in
  let call_pool = [| "printf"; "puts"; "strlen"; "scanf"; "strcat"; "lib_a"; "lib_b" |] in
  let rec stmts depth budget =
    if budget <= 0 then []
    else
      let s =
        match Mlkit.Rng.int rng (if depth > 2 then 3 else 5) with
        | 0 -> Printf.sprintf "%s(\"x\");" (Mlkit.Rng.pick rng call_pool)
        | 1 -> "let v = 1;"
        | 2 -> Printf.sprintf "let w = %s(\"y\");" (Mlkit.Rng.pick rng call_pool)
        | 3 ->
            Printf.sprintf "if (v > %d) { %s } else { %s }" (Mlkit.Rng.int rng 5)
              (String.concat " " (stmts (depth + 1) (budget / 2)))
              (String.concat " " (stmts (depth + 1) (budget / 2)))
        | _ ->
            Printf.sprintf "while (v < %d) { %s v = v + 1; }" (Mlkit.Rng.int rng 5)
              (String.concat " " (stmts (depth + 1) (budget / 2)))
      in
      s :: stmts depth (budget - 1)
  in
  let body = "let v = 0;" :: stmts 0 6 in
  let helper = "fun helper() { " ^ String.concat " " (stmts 0 4) ^ " }" in
  let main =
    "fun main() { " ^ String.concat " " body ^ " helper(); helper(); }"
  in
  main ^ "\n" ^ helper

let prop_pctm_conserved =
  QCheck2.Test.make ~name:"pCTM invariants hold on random programs" ~count:60
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let src = random_program seed in
      let prog = Parser.parse_program src in
      let a = Analysis.Analyzer.analyze prog in
      Ctm.conserved a.Analysis.Analyzer.pctm)

(* --- Ctm unit tests ---------------------------------------------------- *)

let sym name site = Symbol.Lib { name; label = None; site = Some site }

let test_ctm_basic () =
  let ctm = Ctm.create () in
  let a = sym "a" 1 and b = sym "b" 2 in
  Ctm.add ctm a b 0.25;
  Ctm.add ctm a b 0.25;
  Alcotest.(check (float 1e-12)) "add accumulates" 0.5 (Ctm.get ctm a b);
  Ctm.set ctm a b 0.0;
  Alcotest.(check (float 1e-12)) "set to zero removes" 0.0 (Ctm.get ctm a b);
  Alcotest.(check int) "no symbols left" 0 (List.length (Ctm.symbols ctm))

let test_ctm_rows_columns () =
  let ctm = Ctm.create () in
  let a = sym "a" 1 and b = sym "b" 2 and c = sym "c" 3 in
  Ctm.add ctm Symbol.Entry a 1.0;
  Ctm.add ctm a b 0.6;
  Ctm.add ctm a c 0.4;
  Ctm.add ctm b Symbol.Exit 0.6;
  Ctm.add ctm c Symbol.Exit 0.4;
  Alcotest.(check (float 1e-12)) "row sum" 1.0 (row_sum ctm a);
  Alcotest.(check (float 1e-12)) "column sum" 0.6 (Ctm.column_sum ctm b);
  Alcotest.(check int) "calls exclude entry/exit" 3 (List.length (Ctm.calls ctm));
  Alcotest.(check bool) "conserved" true (Ctm.conserved ctm)

let test_ctm_eliminate_symbol_preserves_flow () =
  let ctm = Ctm.create () in
  let a = sym "a" 1 and mid = sym "m" 2 and b = sym "b" 3 in
  Ctm.add ctm Symbol.Entry a 1.0;
  Ctm.add ctm a mid 1.0;
  Ctm.add ctm mid b 1.0;
  Ctm.add ctm b Symbol.Exit 1.0;
  Ctm.eliminate_symbol ctm mid;
  Alcotest.(check (float 1e-12)) "pass-through created" 1.0 (Ctm.get ctm a b);
  Alcotest.(check bool) "still conserved" true (Ctm.conserved ctm);
  Alcotest.(check bool) "symbol gone" true
    (not (List.exists (Symbol.equal mid) (Ctm.symbols ctm)))

let test_ctm_map_symbols_merges () =
  let ctm = Ctm.create () in
  (* Two sites of the same call: stripping sites must merge their mass. *)
  Ctm.add ctm (sym "printf" 1) Symbol.Exit 0.3;
  Ctm.add ctm (sym "printf" 2) Symbol.Exit 0.2;
  let merged = Ctm.map_symbols Symbol.observable ctm in
  Alcotest.(check (float 1e-12)) "mass merged" 0.5
    (Ctm.get merged (Symbol.lib "printf") Symbol.Exit);
  Alcotest.(check int) "one call left" 1 (List.length (Ctm.calls merged))

(* Consecutive calls to the same function: the self-pair case of the
   aggregation (f(); f();) must keep the invariants. *)
let test_aggregate_self_pair () =
  let src =
    {|
      fun main() { helper(); helper(); puts("done"); }
      fun helper() { if (x > 0) { printf("h"); } }
    |}
  in
  let a = Analysis.Analyzer.analyze (Parser.parse_program src) in
  Alcotest.(check bool) "self-pair aggregation conserved" true
    (Ctm.conserved a.Analysis.Analyzer.pctm);
  (* printf -> printf must now exist: last call of one helper execution
     to the first call of the next. *)
  let p = a.Analysis.Analyzer.pctm in
  let printf_site =
    List.find
      (fun s -> match s with Symbol.Lib { name = "printf"; _ } -> true | _ -> false)
      (Ctm.calls p)
  in
  Alcotest.(check bool) "printf chains across executions" true
    (Ctm.get p printf_site printf_site > 0.0)

let test_aggregate_recursion () =
  let src =
    {|
      fun main() { walk(3); }
      fun walk(n) { printf("%d", n); if (n > 0) { walk(n - 1); } }
    |}
  in
  let a = Analysis.Analyzer.analyze (Parser.parse_program src) in
  Alcotest.(check bool) "recursive program aggregates conservatively" true
    (Ctm.conserved a.Analysis.Analyzer.pctm);
  Alcotest.(check bool) "no Func symbols remain" true
    (List.for_all
       (fun s -> match s with Symbol.Func _ -> false | _ -> true)
       (Ctm.symbols a.Analysis.Analyzer.pctm))

(* Regression for the branch-feasibility prepass: a constantly-false
   branch is pruned before the forecast, so the dead arm's call never
   enters the pCTM, its node disappears from the pruned graph's
   reachability, and the sharpened pCTM still conserves flow. *)
let test_pruned_branch_excluded () =
  let src =
    {|
      fun main() {
        let flag = 0;
        lib_a("x");
        if (flag == 1) { secret("s"); }
        lib_b("y");
      }
    |}
  in
  let a = Analysis.Analyzer.analyze (Parser.parse_program src) in
  let p = a.Analysis.Analyzer.pctm in
  let call_names =
    List.sort_uniq compare (List.map Symbol.name (Ctm.calls p))
  in
  Alcotest.(check (list string))
    "pCTM excludes the dead arm's call" [ "lib_a"; "lib_b" ] call_names;
  Alcotest.(check bool) "sharpened pCTM still conserved" true (Ctm.conserved p);
  Alcotest.(check bool)
    "the prepass reports removed edges" true
    (List.exists
       (fun r -> r.Analysis.Prune.removed_edges <> [])
       a.Analysis.Analyzer.pruning);
  (* The dead arm had positive reach in the original graph; in the
     pruned graph its node is gone and the exit still has reach 1. *)
  let orig = List.assoc "main" a.Analysis.Analyzer.cfgs in
  let pruned = List.assoc "main" a.Analysis.Analyzer.pruned_cfgs in
  let dead =
    List.filter
      (fun id -> not (List.mem id (Cfg.node_ids pruned)))
      (Cfg.node_ids orig)
  in
  Alcotest.(check bool) "a node was dropped" true (dead <> []);
  let orig_reach = Analysis.Forecast.reachability orig in
  Alcotest.(check bool)
    "the dropped node was reachable before pruning" true
    (List.for_all (fun id -> List.assoc id orig_reach > 0.0) dead);
  let reach = Analysis.Forecast.reachability pruned in
  Alcotest.(check (float 1e-9))
    "exit reach on the pruned graph" 1.0
    (List.assoc pruned.Cfg.exit reach)

let () =
  Alcotest.run "forecast"
    [
      ( "ctm",
        [
          Alcotest.test_case "add/set/get" `Quick test_ctm_basic;
          Alcotest.test_case "rows, columns, conservation" `Quick test_ctm_rows_columns;
          Alcotest.test_case "eliminate_symbol preserves flow" `Quick
            test_ctm_eliminate_symbol_preserves_flow;
          Alcotest.test_case "map_symbols merges" `Quick test_ctm_map_symbols_merges;
          Alcotest.test_case "aggregation with a self pair" `Quick test_aggregate_self_pair;
          Alcotest.test_case "aggregation with recursion" `Quick test_aggregate_recursion;
          Alcotest.test_case "constant-false branch pruned from forecast" `Quick
            test_pruned_branch_excluded;
        ] );
      ( "fig3",
        [
          Alcotest.test_case "Table I: CTM of main()" `Quick test_table1;
          Alcotest.test_case "Table II: CTM of f()" `Quick test_table2;
          Alcotest.test_case "DDG labels exactly the DB-output printf" `Quick test_labeling;
          Alcotest.test_case "pCTM aggregation values" `Quick test_pctm_values;
          Alcotest.test_case "pCTM invariants" `Quick test_pctm_invariants;
          Alcotest.test_case "reachability endpoints" `Quick test_reachability;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_pctm_conserved ] );
    ]
