(* Quickstart: profile a tiny DB client and catch a tautology injection.

   Run with:  dune exec examples/quickstart.exe

   The program below is the Fig. 2 scenario of the paper: a client that
   concatenates user input into its query. We (1) statically analyze it,
   (2) train a behaviour profile from normal runs, and (3) monitor a
   malicious run. *)

let source =
  {|
fun main() {
  let conn = db_connect("mysql");
  let acc = scanf();
  let q = strcat(strcat("SELECT * FROM clients WHERE id='", acc), "';");
  if (mysql_query(conn, q) != 0) {
    printf("query error\n");
    exit();
  }
  let res = mysql_store_result(conn);
  let row = mysql_fetch_row(res);
  while (row != null) {
    printf("%s %s\n", row[0], row[1]);
    row = mysql_fetch_row(res);
  }
  printf("done\n");
}
|}

let app =
  {
    Adprom.Pipeline.name = "quickstart";
    source;
    dbms = "MySQL";
    setup_db =
      (fun engine ->
        ignore (Sqldb.Engine.exec engine "CREATE TABLE clients (id, name)");
        for i = 0 to 19 do
          ignore
            (Sqldb.Engine.exec engine
               (Printf.sprintf "INSERT INTO clients VALUES (%d, 'user%d')" (100 + i) i))
        done);
    test_cases =
      List.init 15 (fun i ->
          Runtime.Testcase.make ~input:[ string_of_int (100 + i) ] (Printf.sprintf "normal-%d" i));
  }

let () =
  (* 1. static phase: CFG, DDG labels, probability forecast, pCTM *)
  let dataset = Adprom.Pipeline.collect app in
  let analysis = dataset.Adprom.Pipeline.analysis in
  Printf.printf "Static analysis: %d call sites, %d DB-output label(s), pCTM conserved: %b\n"
    (List.length (Analysis.Ctm.calls analysis.Analysis.Analyzer.pctm))
    (List.length
       analysis.Analysis.Analyzer.front.Analysis.Front.taint.Analysis.Taint.labeled_blocks)
    (Analysis.Ctm.conserved analysis.Analysis.Analyzer.pctm);

  (* 2. dynamic phase: train the HMM profile on normal traces *)
  let profile = Adprom.Pipeline.train dataset in
  Printf.printf "Profile: %d hidden states, %d observables, threshold %.3f\n\n"
    profile.Adprom.Profile.clustering.Adprom.Reduction.states
    (Array.length profile.Adprom.Profile.alphabet)
    profile.Adprom.Profile.threshold;
  let engine = Adprom.Scoring.create profile in

  (* 3. detection: a normal run and a tautology injection *)
  let monitor label input =
    let tc = Runtime.Testcase.make ~input:[ input ] label in
    let trace, outcome = Adprom.Pipeline.run_case ~analysis app tc in
    let verdicts = Adprom.Scoring.monitor engine trace in
    Printf.printf "%-10s input=%-14s rows_printed=%d verdict=%s\n" label input
      outcome.Runtime.Interp.leaked_values
      (Adprom.Detector.flag_to_string (Adprom.Detector.worst (List.map snd verdicts)))
  in
  monitor "normal" "105";
  monitor "attack" "1' OR '1'='1"
