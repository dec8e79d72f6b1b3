(* Integration tests reproducing the paper's inline scenarios:
   Fig. 1 (query selectivity widened), Fig. 2 (tautology injection),
   Fig. 9 (block-id labels distinguish look-alike prints), plus an
   end-to-end detection smoke test. *)

module Parser = Applang.Parser
module Analyzer = Analysis.Analyzer
module Symbol = Analysis.Symbol
module Interp = Runtime.Interp
module Testcase = Runtime.Testcase
module Collector = Runtime.Collector

let setup_items engine =
  ignore (Sqldb.Engine.exec engine "CREATE TABLE items (id, name)");
  for i = 1 to 20 do
    ignore
      (Sqldb.Engine.exec engine (Printf.sprintf "INSERT INTO items VALUES (%d, 'item%d')" i i))
  done

let run ?(input = []) ?(setup = setup_items) src =
  let analysis = Analyzer.analyze (Parser.parse_program src) in
  let engine = Sqldb.Engine.create () in
  setup engine;
  Interp.collect_trace ~analysis ~engine (Testcase.make ~input "t")

let names trace =
  Array.to_list (Array.map (fun (e : Collector.event) -> Symbol.name e.Collector.symbol) trace)

(* --- Fig. 1: widening the query's selectivity ------------------------------ *)

let fig1_source op =
  Printf.sprintf
    {|
      fun main() {
        let conn = db_connect("pg");
        let result = pq_exec(conn, "SELECT * FROM items WHERE id %s 10");
        let rows = pq_ntuples(result);
        for (let r = 0; r < rows; r = r + 1) {
          printf("%%s", pq_getvalue(result, r, 0));
        }
      }
    |}
    op

let test_fig1_selectivity () =
  let count_prints src =
    let trace, _ = run src in
    List.length (List.filter (( = ) "printf") (names trace))
  in
  let original = count_prints (fig1_source "=") in
  let attacked = count_prints (fig1_source ">=") in
  Alcotest.(check int) "original prints one row" 1 original;
  Alcotest.(check int) "widened query prints eleven rows" 11 attacked

(* --- Fig. 2: tautology-based SQL injection --------------------------------- *)

let fig2_source =
  {|
    fun main() {
      let conn = db_connect("mysql");
      let accno = scanf();
      let query = strcpy("SELECT * FROM items WHERE id='");
      query = strcat(query, accno);
      query = strcat(query, "';");
      if (mysql_query(conn, query) != 0) {
        printf("error");
        return;
      }
      let result = mysql_store_result(conn);
      let row = mysql_fetch_row(result);
      while (row != null) {
        printf("%s ", row[0]);
        row = mysql_fetch_row(result);
      }
    }
  |}

let test_fig2_call_sequence () =
  let trace_normal, _ = run ~input:[ "7" ] fig2_source in
  let trace_attack, _ = run ~input:[ "1' OR '1'='1" ] fig2_source in
  (* Prefix of the sequence matches the paper's listing. *)
  let prefix =
    [ "db_connect"; "scanf"; "strcpy"; "strcat"; "strcat"; "mysql_query";
      "mysql_store_result"; "mysql_fetch_row"; "printf" ]
  in
  let got = names trace_normal in
  Alcotest.(check (list string)) "normal prefix" prefix
    (List.filteri (fun i _ -> i < List.length prefix) got);
  let fetches trace = List.length (List.filter (( = ) "mysql_fetch_row") (names trace)) in
  Alcotest.(check int) "normal: one row + terminator" 2 (fetches trace_normal);
  Alcotest.(check int) "tautology: all rows + terminator" 21 (fetches trace_attack)

(* --- Fig. 9: block ids distinguish look-alike prints ------------------------ *)

let test_fig9_labels_distinguish_blocks () =
  (* Two code paths with the same (name-level) sequence; the labels of
     the Q-printfs differ because the block ids differ. *)
  let source which =
    Printf.sprintf
      {|
        fun main() {
          let conn = db_connect("pg");
          let r = pq_exec(conn, "SELECT name FROM items WHERE id = 1");
          let v = pq_getvalue(r, 0, 0);
          if (%s) {
            printf("%%s high\n", v);
          } else {
            printf("%%s low\n", v);
          }
          printf("done\n");
        }
      |}
      which
  in
  let labeled_of src =
    let trace, _ = run src in
    List.filter_map
      (fun (e : Collector.event) ->
        match e.Collector.symbol with
        | Symbol.Lib { label = Some bid; _ } -> Some bid
        | _ -> None)
      (Array.to_list trace)
  in
  let then_label = labeled_of (source "1 == 1") in
  let else_label = labeled_of (source "1 == 2") in
  Alcotest.(check int) "one labeled call each" 1 (List.length then_label);
  Alcotest.(check bool) "different block ids" true (then_label <> else_label)

(* --- end-to-end detection smoke --------------------------------------------- *)

let test_end_to_end_detection () =
  let app =
    {
      Adprom.Pipeline.name = "scenario";
      source = fig2_source;
      dbms = "MySQL";
      setup_db = setup_items;
      test_cases =
        List.init 12 (fun i ->
            Testcase.make ~input:[ string_of_int (1 + (i mod 20)) ] (Printf.sprintf "n%d" i));
    }
  in
  let ds = Adprom.Pipeline.collect app in
  let engine = Adprom.Scoring.create (Adprom.Pipeline.train ds) in
  let classify input =
    let tc = Testcase.make ~input:[ input ] "probe" in
    let trace, _ = Adprom.Pipeline.run_case ~analysis:ds.Adprom.Pipeline.analysis app tc in
    Adprom.Detector.worst (List.map snd (Adprom.Scoring.monitor engine trace))
  in
  Alcotest.(check bool) "normal input is normal" true (classify "5" = Adprom.Detector.Normal);
  Alcotest.(check bool) "tautology is a data leak" true
    (classify "1' OR '1'='1" = Adprom.Detector.Data_leak)

(* The monitored program's stdout must be unaffected by monitoring:
   requirement (1) of the paper (minimal modification). *)
let test_monitoring_transparent () =
  let src = fig2_source in
  let analysis = Analyzer.analyze (Parser.parse_program src) in
  let engine1 = Sqldb.Engine.create () in
  setup_items engine1;
  let out_plain =
    Interp.run ~collector:Collector.null ~analysis ~engine:engine1 (Testcase.make ~input:[ "3" ] "t")
  in
  let engine2 = Sqldb.Engine.create () in
  setup_items engine2;
  let collector, _ = Collector.adprom () in
  let out_monitored =
    Interp.run ~collector ~analysis ~engine:engine2 (Testcase.make ~input:[ "3" ] "t")
  in
  Alcotest.(check string) "same stdout with and without monitoring"
    out_plain.Interp.stdout out_monitored.Interp.stdout

let () =
  Alcotest.run "scenarios"
    [
      ( "paper figures",
        [
          Alcotest.test_case "Fig. 1: selectivity attack" `Quick test_fig1_selectivity;
          Alcotest.test_case "Fig. 2: tautology call sequences" `Quick test_fig2_call_sequence;
          Alcotest.test_case "Fig. 9: labels carry block ids" `Quick
            test_fig9_labels_distinguish_blocks;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "detection" `Quick test_end_to_end_detection;
          Alcotest.test_case "monitoring is transparent" `Quick test_monitoring_transparent;
        ] );
    ]
