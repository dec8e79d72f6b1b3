(* Tests for the static analysis substrate: CFG construction, call
   graph / SCCs, and the interprocedural taint (DDG) labeling. *)

module Ast = Applang.Ast
module Parser = Applang.Parser
module Cfg = Analysis.Cfg
module Cfg_build = Analysis.Cfg_build
module Callgraph = Analysis.Callgraph
module Taint = Analysis.Taint
module Dataflow = Analysis.Dataflow
module Symbol = Analysis.Symbol

let build src = Cfg_build.build_program (Parser.parse_program src)

let cfg_of src name = List.assoc name (fst (build src))

(* --- cfg ----------------------------------------------------------------- *)

let test_cfg_straight_line () =
  let cfg = cfg_of "fun main() { printf(\"a\"); puts(\"b\"); }" "main" in
  Alcotest.(check int) "entry, 2 calls, exit" 4 (List.length (Cfg.node_ids cfg));
  Alcotest.(check bool) "is a dag" true (Cfg.is_dag cfg);
  let calls = List.map (fun (_, s) -> s.Cfg.callee) (Cfg.call_nodes cfg) in
  Alcotest.(check (list string)) "call order" [ "printf"; "puts" ] calls

let test_cfg_one_call_per_node () =
  let cfg = cfg_of "fun main() { printf(\"%s\", strcat(a(), b())); }" "main" in
  (* a, b, strcat, printf: four call nodes in evaluation order *)
  let calls = List.map (fun (_, s) -> s.Cfg.callee) (Cfg.call_nodes cfg) in
  Alcotest.(check (list string)) "nested calls split into nodes"
    [ "a"; "b"; "strcat"; "printf" ] calls

let test_cfg_if_shape () =
  let cfg = cfg_of "fun main() { if (x > 0) { printf(\"t\"); } else { puts(\"e\"); } }" "main" in
  (* entry, cond, 2 call nodes, join, exit *)
  Alcotest.(check int) "node count" 6 (List.length (Cfg.node_ids cfg));
  let cond =
    List.find
      (fun id -> match (Cfg.node cfg id).Cfg.event with Cfg.E_cond _ -> true | _ -> false)
      (Cfg.node_ids cfg)
  in
  Alcotest.(check int) "cond has two successors" 2 (Cfg.out_degree cfg cond)

let test_cfg_while_back_edge () =
  let cfg = cfg_of "fun main() { while (x > 0) { printf(\"l\"); } puts(\"end\"); }" "main" in
  Alcotest.(check bool) "is a dag after redirect" true (Cfg.is_dag cfg);
  Alcotest.(check int) "one back edge recorded" 1 (List.length cfg.Cfg.back_edges);
  let src, dst = List.hd cfg.Cfg.back_edges in
  (match (Cfg.node cfg dst).Cfg.event with
  | Cfg.E_cond _ -> ()
  | _ -> Alcotest.fail "back edge targets the loop condition");
  match (Cfg.node cfg src).Cfg.event with
  | Cfg.E_call site -> Alcotest.(check string) "from the body" "printf" site.Cfg.callee
  | _ -> Alcotest.fail "back edge leaves the body"

let test_cfg_for_continue_break () =
  let cfg =
    cfg_of
      {|
        fun main() {
          for (let i = 0; i < 9; i = i + 1) {
            if (i == 2) { continue; }
            if (i == 5) { break; }
            printf("x");
          }
        }
      |}
      "main"
  in
  Alcotest.(check bool) "still a dag" true (Cfg.is_dag cfg);
  Alcotest.(check bool) "back edges recorded" true (List.length cfg.Cfg.back_edges >= 1)

let test_cfg_return_reaches_exit () =
  let cfg = cfg_of "fun main() { if (x > 0) { return; } printf(\"after\"); }" "main" in
  let returns =
    List.filter
      (fun id -> match (Cfg.node cfg id).Cfg.event with Cfg.E_return _ -> true | _ -> false)
      (Cfg.node_ids cfg)
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "return connects to exit" true
        (List.mem cfg.Cfg.exit (Cfg.successors cfg r)))
    returns

let test_cfg_sites_registered () =
  let cfgs, sites = build "fun main() { printf(\"%d\", strlen(\"x\")); }" in
  let cfg = List.assoc "main" cfgs in
  List.iter
    (fun (id, site) ->
      match Cfg.Sites.block_of sites site.Cfg.call_expr with
      | Some bid -> Alcotest.(check int) "site maps to its node" id bid
      | None -> Alcotest.fail "unregistered call site")
    (Cfg.call_nodes cfg)

let test_cfg_ids_globally_unique () =
  let cfgs, _ = build "fun main() { f(); } fun f() { printf(\"x\"); }" in
  let all = List.concat_map (fun (_, cfg) -> Cfg.node_ids cfg) cfgs in
  Alcotest.(check int) "no shared ids across functions"
    (List.length all)
    (List.length (List.sort_uniq compare all))

(* --- callgraph ------------------------------------------------------------ *)

let cg_src =
  {|
    fun main() { a(); b(); }
    fun a() { c(); }
    fun b() { c(); rec(3); }
    fun c() { printf("leaf"); }
    fun rec(n) { if (n > 0) { rec(n - 1); } }
    fun dead() { a(); }
  |}

let test_callgraph_edges () =
  let cfgs, _ = build cg_src in
  let cg = Callgraph.build cfgs in
  Alcotest.(check (list string)) "main calls" [ "a"; "b" ] (Callgraph.callees cg "main");
  Alcotest.(check (list string)) "callers of c" [ "a"; "b" ] (List.sort compare (Callgraph.callers cg "c"));
  Alcotest.(check (list string)) "leaf calls nothing" [] (Callgraph.callees cg "c")

let test_callgraph_sccs_leaf_first () =
  let cfgs, _ = build cg_src in
  let cg = Callgraph.build cfgs in
  let order = List.concat (Callgraph.sccs cg) in
  let pos name =
    let rec go i = function
      | [] -> Alcotest.failf "%s not in SCC order" name
      | x :: rest -> if x = name then i else go (i + 1) rest
    in
    go 0 order
  in
  Alcotest.(check bool) "c before a" true (pos "c" < pos "a");
  Alcotest.(check bool) "a before main" true (pos "a" < pos "main");
  Alcotest.(check bool) "b before main" true (pos "b" < pos "main")

let test_callgraph_recursion () =
  let cfgs, _ = build cg_src in
  let cg = Callgraph.build cfgs in
  Alcotest.(check (list string)) "self recursion detected" [ "rec" ]
    (Callgraph.recursive_partners cg "rec");
  Alcotest.(check (list string)) "non-recursive is clean" [] (Callgraph.recursive_partners cg "a");
  (* mutual recursion *)
  let cfgs, _ = build "fun main() { ping(1); } fun ping(n) { pong(n); } fun pong(n) { ping(n); }" in
  let cg = Callgraph.build cfgs in
  Alcotest.(check (list string)) "mutual recursion partners" [ "pong" ]
    (Callgraph.recursive_partners cg "ping")

(* --- taint / DDG ----------------------------------------------------------- *)

let labeled_sinks src =
  let cfgs, _ = build src in
  let result = Taint.analyze cfgs in
  result.Taint.labeled_blocks

let test_taint_direct_flow () =
  let labels =
    labeled_sinks
      {|
        fun main() {
          let r = pq_exec(conn, "SELECT * FROM t");
          printf("%s", pq_getvalue(r, 0, 0));
          printf("clean");
        }
      |}
  in
  Alcotest.(check int) "exactly the tainted printf" 1 (List.length labels)

let test_taint_string_propagation () =
  let labels =
    labeled_sinks
      {|
        fun main() {
          let r = pq_exec(conn, "q");
          let s = strcat("prefix: ", pq_getvalue(r, 0, 0));
          puts(s);
        }
      |}
  in
  Alcotest.(check int) "taint flows through strcat" 1 (List.length labels)

let test_taint_strong_update () =
  let labels =
    labeled_sinks
      {|
        fun main() {
          let s = pq_getvalue(pq_exec(conn, "q"), 0, 0);
          s = "now clean";
          printf("%s", s);
        }
      |}
  in
  Alcotest.(check int) "reassignment clears taint" 0 (List.length labels)

let test_taint_loop_carried () =
  let labels =
    labeled_sinks
      {|
        fun main() {
          let y = "clean";
          while (c > 0) {
            printf("%s", y);
            y = pq_getvalue(pq_exec(conn, "q"), 0, 0);
          }
        }
      |}
  in
  (* The print is tainted on the second iteration: the may-analysis must
     follow the back edge. *)
  Alcotest.(check int) "loop-carried taint found" 1 (List.length labels)

let test_taint_interprocedural_param () =
  let labels =
    labeled_sinks
      {|
        fun main() {
          let r = pq_exec(conn, "q");
          show(pq_getvalue(r, 0, 0));
          show("constant");
        }
        fun show(v) { printf("%s", v); }
      |}
  in
  (* show's printf may receive targeted data (joined over call sites). *)
  Alcotest.(check int) "tainted through a parameter" 1 (List.length labels)

let test_taint_interprocedural_return () =
  let labels =
    labeled_sinks
      {|
        fun fetch() {
          let r = pq_exec(conn, "q");
          return pq_getvalue(r, 0, 0);
        }
        fun main() { printf("%s", fetch()); }
      |}
  in
  Alcotest.(check int) "tainted through a return value" 1 (List.length labels)

let test_taint_summaries () =
  let cfgs, _ =
    build
      {|
        fun source() { return pq_getvalue(pq_exec(conn, "q"), 0, 0); }
        fun echo(x) { return x; }
        fun konst(x) { return 1; }
        fun main() { printf("%s", echo(source())); printf("%d", konst(source())); }
      |}
  in
  let result = Taint.analyze cfgs in
  let summary name = List.assoc name result.Taint.summaries in
  Alcotest.(check bool) "source has const taint" true (summary "source").Dataflow.const;
  Alcotest.(check bool) "echo propagates params" true
    (Array.exists Fun.id (summary "echo").Dataflow.params);
  Alcotest.(check bool) "echo has no const taint" false (summary "echo").Dataflow.const;
  Alcotest.(check bool) "konst never returns taint" false
    (Array.exists Fun.id (summary "konst").Dataflow.params);
  Alcotest.(check int) "only the echo printf is labeled" 1
    (List.length result.Taint.labeled_blocks)

let test_taint_mysql_flow () =
  let labels =
    labeled_sinks
      {|
        fun main() {
          let ok = mysql_query(conn, "SELECT * FROM t");
          let res = mysql_store_result(conn);
          let row = mysql_fetch_row(res);
          printf("%s", row[0]);
          printf("%d", ok);
        }
      |}
  in
  Alcotest.(check int) "mysql pipeline labels one printf" 1 (List.length labels)

let test_taint_idempotent () =
  let cfgs, _ =
    build "fun main() { printf(\"%s\", pq_getvalue(pq_exec(conn, \"q\"), 0, 0)); }"
  in
  let r1 = Taint.analyze cfgs in
  let r2 = Taint.analyze cfgs in
  Alcotest.(check (list int)) "re-analysis is stable" r1.Taint.labeled_blocks
    r2.Taint.labeled_blocks

(* --- exports ----------------------------------------------------------------- *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec probe i = i + n <= h && (String.sub hay i n = needle || probe (i + 1)) in
  n = 0 || probe 0

let export_src =
  {|
    fun main() {
      let r = pq_exec(conn, "q");
      if (x > 0) {
        printf("%s", pq_getvalue(r, 0, 0));
      }
      while (y > 0) {
        puts("tick");
      }
      helper();
    }
    fun helper() { puts("h"); }
  |}

let test_cfg_to_dot () =
  let cfgs, _ = build export_src in
  let result = Taint.analyze cfgs in
  ignore result;
  let dot = Analysis.Export.cfg_to_dot (List.assoc "main" cfgs) in
  Alcotest.(check bool) "digraph" true (contains ~needle:"digraph" dot);
  Alcotest.(check bool) "labeled site highlighted" true (contains ~needle:"_Q" dot);
  Alcotest.(check bool) "back edge dashed" true (contains ~needle:"style=dashed" dot);
  Alcotest.(check bool) "cond diamond" true (contains ~needle:"diamond" dot)

let test_ctm_to_dot () =
  let a = Analysis.Analyzer.analyze (Parser.parse_program export_src) in
  let dot = Analysis.Export.ctm_to_dot ~threshold:0.0 a.Analysis.Analyzer.pctm in
  Alcotest.(check bool) "pq_exec node present" true (contains ~needle:"pq_exec" dot);
  Alcotest.(check bool) "edge weights" true (contains ~needle:"label=\"0." dot);
  let sparse = Analysis.Export.ctm_to_dot ~threshold:10.0 a.Analysis.Analyzer.pctm in
  Alcotest.(check bool) "threshold filters all edges" false (contains ~needle:"->" sparse)

(* --- dominators and loops ------------------------------------------------ *)

let test_dominator_basics () =
  let cfg =
    cfg_of
      "fun main() { let x = scanf(); if (x > 0) { puts(\"t\"); } else { puts(\"e\"); } printf(\"%s\", x); }"
      "main"
  in
  let dom = Analysis.Dominator.compute cfg in
  let entry = cfg.Cfg.entry in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "entry dominates %d" id)
        true
        (Analysis.Dominator.dominates dom entry id);
      Alcotest.(check bool)
        (Printf.sprintf "%d dominates itself" id)
        true
        (Analysis.Dominator.dominates dom id id))
    (Cfg.node_ids cfg);
  Alcotest.(check bool) "entry has no idom" true
    (Analysis.Dominator.idom dom entry = None)

let test_loops_detects_while () =
  let cfg = cfg_of "fun main() { while (x > 0) { printf(\"l\"); } puts(\"end\"); }" "main" in
  match Analysis.Loops.analyze cfg with
  | [ l ] ->
      (match (Cfg.node cfg l.Analysis.Loops.header).Cfg.event with
      | Cfg.E_cond _ -> ()
      | _ -> Alcotest.fail "header is the loop condition");
      Alcotest.(check bool) "body has >= 2 nodes" true
        (List.length l.Analysis.Loops.body >= 2);
      Alcotest.(check bool) "has an exit edge" true (l.Analysis.Loops.exits <> [])
  | ls -> Alcotest.failf "expected exactly one loop, got %d" (List.length ls)

let test_loops_straight_line_has_none () =
  let cfg = cfg_of "fun main() { printf(\"a\"); }" "main" in
  Alcotest.(check int) "no loops" 0 (List.length (Analysis.Loops.analyze cfg))

(* --- qcheck properties over generated programs --------------------------- *)

(* Random programs where DB taint reaches helpers through varying
   argument positions: the per-argument refinement has to agree with
   the coarse whole-function summaries on what is a sink, minus the
   false positives of coarseness. *)
let taint_prog_gen =
  let open QCheck2.Gen in
  let arg = oneofl [ "t"; "c"; "\"lit\"" ] in
  let helper_body =
    oneofl
      [
        "printf(\"%s\", p0);";
        "printf(\"%s\", p1);";
        "return p0;";
        "return p1;";
        "return strcat(p0, p1);";
        "puts(\"x\"); return \"k\";";
      ]
  in
  let* nhelpers = int_range 1 3 in
  let* bodies = list_repeat nhelpers helper_body in
  let stmt =
    let* h = int_range 0 (nhelpers - 1) in
    let* a0 = arg in
    let* a1 = arg in
    oneofl
      [
        Printf.sprintf "h%d(%s, %s);" h a0 a1;
        Printf.sprintf "t = h%d(%s, %s);" h a0 a1;
        Printf.sprintf "printf(\"%%s\", %s);" a0;
      ]
  in
  let* stmts = list_size (int_range 1 5) stmt in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "fun main() {\n";
  Buffer.add_string buf "  let conn = db_connect(\"pg\");\n";
  Buffer.add_string buf "  let t = pq_exec(conn, \"SELECT x\");\n";
  Buffer.add_string buf "  let c = scanf();\n";
  List.iter (fun s -> Buffer.add_string buf ("  " ^ s ^ "\n")) stmts;
  Buffer.add_string buf "}\n";
  List.iteri
    (fun i body -> Buffer.add_string buf (Printf.sprintf "fun h%d(p0, p1) { %s }\n" i body))
    bodies;
  pure (Buffer.contents buf)

let prop_per_arg_refines_coarse =
  QCheck2.Test.make ~name:"per-arg taint refines coarse summaries" ~count:100
    ~print:Fun.id taint_prog_gen (fun src ->
      let fine = Taint.analyze ~per_arg:true (fst (build src)) in
      let coarse = Taint.analyze ~per_arg:false (fst (build src)) in
      List.for_all
        (fun b -> List.mem b coarse.Taint.labeled_blocks)
        fine.Taint.labeled_blocks
      && List.for_all
           (fun (name, (s : Taint.summary)) ->
             let sc = List.assoc name coarse.Taint.summaries in
             (not s.Dataflow.const) || sc.Dataflow.const)
           fine.Taint.summaries
      && List.for_all
           (fun (name, (s : Taint.summary)) ->
             let sc = List.assoc name coarse.Taint.summaries in
             Array.for_all2 (fun fine_bit coarse_bit -> (not fine_bit) || coarse_bit)
               s.Dataflow.params sc.Dataflow.params)
           fine.Taint.summaries)

let prop_taint_idempotent =
  QCheck2.Test.make ~name:"Taint.analyze is idempotent" ~count:100 ~print:Fun.id
    taint_prog_gen (fun src ->
      let cfgs = fst (build src) in
      let first = Taint.analyze cfgs in
      let second = Taint.analyze cfgs in
      first.Taint.labeled_blocks = second.Taint.labeled_blocks
      && first.Taint.summaries = second.Taint.summaries)

(* The shared summary solver walks the functions in list order; the
   fixpoint it reaches must not depend on that order, for either of its
   instances. Witness paths may differ, so sinks are compared as
   (block, source, cardinality). *)
let prop_summaries_order_independent =
  QCheck2.Test.make ~name:"summary fixpoint ignores function order" ~count:100
    ~print:Fun.id taint_prog_gen (fun src ->
      let taint order =
        let r = Taint.analyze (order (fst (build src))) in
        (r.Taint.labeled_blocks, r.Taint.summaries, r.Taint.entry_taint)
      in
      let cfgs = fst (build src) in
      let static = Analysis.Qstatic.infer cfgs in
      let sinks order =
        List.concat_map
          (fun (s : Analysis.Leakage.sink) ->
            List.map
              (fun (a : Analysis.Flowdom.atom) ->
                (s.Analysis.Leakage.block, a.Analysis.Flowdom.src, a.Analysis.Flowdom.card))
              s.Analysis.Leakage.atoms)
          (Analysis.Leakage.analyze ~static (order cfgs)).Analysis.Leakage.sinks
        |> List.sort compare
      in
      taint Fun.id = taint List.rev && sinks Fun.id = sinks List.rev)

let prop_reachability_sane =
  QCheck2.Test.make ~name:"forecast reachability: entry 1.0, values in [0,1]"
    ~count:25 ~print:string_of_int
    (QCheck2.Gen.int_range 0 9999)
    (fun seed ->
      let spec =
        {
          Dataset.Proggen.default with
          Dataset.Proggen.seed;
          functions = 6;
          statements_per_function = 8;
        }
      in
      let cfgs = fst (build (Dataset.Proggen.generate spec)) in
      List.for_all
        (fun (_, cfg) ->
          let reach = Analysis.Forecast.reachability cfg in
          List.for_all
            (fun (id, p) ->
              p >= -.1e-9
              && p <= 1.0 +. 1e-9
              && (id <> cfg.Cfg.entry || Float.abs (p -. 1.0) < 1e-9))
            reach)
        cfgs)

let test_callgraph_to_dot () =
  let cfgs, _ = build export_src in
  let dot = Analysis.Export.callgraph_to_dot (Callgraph.build cfgs) in
  Alcotest.(check bool) "edge main -> helper" true
    (contains ~needle:"\"main\" -> \"helper\"" dot)

let () =
  Alcotest.run "analysis"
    [
      ( "cfg",
        [
          Alcotest.test_case "straight line" `Quick test_cfg_straight_line;
          Alcotest.test_case "one call per node" `Quick test_cfg_one_call_per_node;
          Alcotest.test_case "if shape" `Quick test_cfg_if_shape;
          Alcotest.test_case "while back edge" `Quick test_cfg_while_back_edge;
          Alcotest.test_case "for with continue/break" `Quick test_cfg_for_continue_break;
          Alcotest.test_case "return reaches exit" `Quick test_cfg_return_reaches_exit;
          Alcotest.test_case "sites registered" `Quick test_cfg_sites_registered;
          Alcotest.test_case "globally unique block ids" `Quick test_cfg_ids_globally_unique;
        ] );
      ( "callgraph",
        [
          Alcotest.test_case "edges" `Quick test_callgraph_edges;
          Alcotest.test_case "leaf-first sccs" `Quick test_callgraph_sccs_leaf_first;
          Alcotest.test_case "recursion detection" `Quick test_callgraph_recursion;
        ] );
      ( "export",
        [
          Alcotest.test_case "cfg dot" `Quick test_cfg_to_dot;
          Alcotest.test_case "ctm dot" `Quick test_ctm_to_dot;
          Alcotest.test_case "callgraph dot" `Quick test_callgraph_to_dot;
        ] );
      ( "taint",
        [
          Alcotest.test_case "direct flow" `Quick test_taint_direct_flow;
          Alcotest.test_case "string propagation" `Quick test_taint_string_propagation;
          Alcotest.test_case "strong update" `Quick test_taint_strong_update;
          Alcotest.test_case "loop-carried flow" `Quick test_taint_loop_carried;
          Alcotest.test_case "interprocedural parameter" `Quick test_taint_interprocedural_param;
          Alcotest.test_case "interprocedural return" `Quick test_taint_interprocedural_return;
          Alcotest.test_case "function summaries" `Quick test_taint_summaries;
          Alcotest.test_case "mysql pipeline" `Quick test_taint_mysql_flow;
          Alcotest.test_case "idempotent" `Quick test_taint_idempotent;
        ] );
      ( "structure",
        [
          Alcotest.test_case "dominator basics" `Quick test_dominator_basics;
          Alcotest.test_case "while loop detected" `Quick test_loops_detects_while;
          Alcotest.test_case "straight line loop-free" `Quick
            test_loops_straight_line_has_none;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_per_arg_refines_coarse;
          QCheck_alcotest.to_alcotest prop_taint_idempotent;
          QCheck_alcotest.to_alcotest prop_summaries_order_independent;
          QCheck_alcotest.to_alcotest prop_reachability_sane;
        ] );
    ]
