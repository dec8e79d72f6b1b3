(* Table VI: Calls Collector vs ltrace performance. Each test case runs
   under three collectors — null (baseline), AD-PROM's, and the
   simulated ltrace — and the table reports the per-run collection
   overhead (time over baseline) plus the overhead decrease, the
   paper's headline ~78% average. *)

let repetitions = 40
let trials = 5

(* Best-of-[trials] mean over [repetitions] runs: robust against GC and
   scheduler noise on these sub-millisecond workloads. *)
let measure app analysis tc collector =
  let engine = Adprom.Pipeline.fresh_engine app in
  ignore (Runtime.Interp.run ~collector ~analysis ~engine tc);
  let best = ref infinity in
  for _ = 1 to trials do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to repetitions do
      let engine = Adprom.Pipeline.fresh_engine app in
      ignore (Runtime.Interp.run ~collector ~analysis ~engine tc)
    done;
    best := Float.min !best ((Unix.gettimeofday () -. t0) /. float_of_int repetitions)
  done;
  !best

let run () =
  Common.heading "Table VI: Calls Collector vs ltrace performance (seconds/run)";
  let market = (Lazy.force Common.ca_supermarket).Common.dataset in
  let bank = (Lazy.force Common.ca_banking).Common.dataset in
  let cases =
    [
      (* print-heavy: long inventory listings *)
      ( "1 (print-heavy)",
        market.Adprom.Pipeline.app,
        market.Adprom.Pipeline.analysis,
        Runtime.Testcase.make ~input:([ "5"; "8" ] @ [ "0" ]) "t6-1" );
      ( "2 (print-heavy)",
        market.Adprom.Pipeline.app,
        market.Adprom.Pipeline.analysis,
        Runtime.Testcase.make
          ~input:(List.concat (List.init 8 (fun _ -> [ "5"; "8" ])) @ [ "0" ])
          "t6-2" );
      (* query-heavy: many statements, few prints *)
      ( "3 (query-heavy)",
        bank.Adprom.Pipeline.app,
        bank.Adprom.Pipeline.analysis,
        Runtime.Testcase.make
          ~input:[ "2"; "101"; "10"; "3"; "102"; "5"; "4"; "103"; "104"; "5"; "0" ]
          "t6-3" );
      ( "4 (query-heavy)",
        bank.Adprom.Pipeline.app,
        bank.Adprom.Pipeline.analysis,
        Runtime.Testcase.make ~input:[ "2"; "105"; "25"; "6"; "0" ] "t6-4" );
    ]
  in
  let rows =
    List.map
      (fun (label, app, analysis, tc) ->
        let base = measure app analysis tc Runtime.Collector.null in
        let adprom_collector () = fst (Runtime.Collector.adprom ()) in
        let t_adprom = measure app analysis tc (adprom_collector ()) in
        let symtab =
          Runtime.Ltrace.symtab_of_cfgs analysis.Analysis.Analyzer.front.Analysis.Front.cfgs
        in
        let lt, _, _ = Runtime.Ltrace.make ~symtab in
        let t_ltrace = measure app analysis tc lt in
        let over_ltrace = Float.max 1e-9 (t_ltrace -. base) in
        let over_adprom = Float.max 0.0 (t_adprom -. base) in
        let decrease = (over_ltrace -. over_adprom) /. over_ltrace in
        [
          label;
          Adprom.Report.float_cell ~digits:6 over_ltrace;
          Adprom.Report.float_cell ~digits:6 over_adprom;
          Adprom.Report.percent_cell decrease;
        ])
      cases
  in
  Adprom.Report.print
    ~header:[ "Test case"; "ltrace"; "Calls Collector"; "Overhead Decrease" ]
    rows;
  let avg =
    let ds =
      List.map
        (fun row ->
          match row with
          | [ _; _; _; pct ] -> float_of_string (String.sub pct 0 (String.length pct - 1))
          | _ -> 0.0)
        rows
    in
    List.fold_left ( +. ) 0.0 ds /. float_of_int (List.length ds)
  in
  Printf.printf "\nAverage overhead decrease: %.2f%% (paper: 78.29%%)\n" avg
