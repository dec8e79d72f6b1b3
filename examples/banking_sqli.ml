(* Attack 5 end to end on the banking application (Fig. 2 / Table V):
   the unprepared client lookup is exploited with the tautology
   [1' OR '1'='1], every client record is harvested, and AD-PROM's
   Detection Engine flags the windows with the Data-Leak flag.

   Run with:  dune exec examples/banking_sqli.exe *)

let () =
  let case = Dataset.Ca_attacks.attack5 () in
  let app = case.Dataset.Ca_attacks.app in
  Printf.printf "Training the AD-PROM profile of %s ...\n%!" app.Adprom.Pipeline.name;
  let dataset = Adprom.Pipeline.collect app in
  let profile = Adprom.Pipeline.train dataset in
  Printf.printf "  %d normal sequences, threshold %.3f\n\n"
    (List.length dataset.Adprom.Pipeline.windows)
    profile.Adprom.Profile.threshold;
  let engine = Adprom.Scoring.create profile in

  Printf.printf "Attack: %s\n\n" case.Dataset.Ca_attacks.scenario.Attack.Scenario.description;
  let malicious_traces =
    Attack.Scenario.run case.Dataset.Ca_attacks.scenario app
  in
  (* Show the detection on the first poisoned run. *)
  (match malicious_traces with
  | (tc, trace) :: _ ->
      Printf.printf "Trace of %s (%d calls):\n" tc.Runtime.Testcase.name (Array.length trace);
      Array.iteri
        (fun i (e : Runtime.Collector.event) ->
          if i < 24 then
            Printf.printf "  %-24s from %s\n"
              (Analysis.Symbol.to_string e.Runtime.Collector.symbol)
              e.Runtime.Collector.caller)
        trace;
      if Array.length trace > 24 then Printf.printf "  ... (%d more)\n" (Array.length trace - 24);
      let verdicts = Adprom.Scoring.monitor engine trace in
      let counts = Hashtbl.create 4 in
      List.iter
        (fun (_, (v : Adprom.Detector.verdict)) ->
          let key = Adprom.Detector.flag_to_string v.Adprom.Detector.flag in
          Hashtbl.replace counts key
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
        verdicts;
      Printf.printf "\nWindow verdicts:\n";
      Hashtbl.iter (fun flag n -> Printf.printf "  %-16s %d\n" flag n) counts;
      Printf.printf "\nOverall: %s\n"
        (Adprom.Detector.flag_to_string
           (Adprom.Detector.worst (List.map snd verdicts)))
  | [] -> print_endline "no malicious traces produced");

  (* The second detection axis: the same attack seen by the trained
     query-signature engine (what `adprom qsig train banking` followed
     by `adprom qsig check` does from the shell). *)
  Printf.printf "\nQuery axis (signature + constraint + band engine):\n";
  let qengine = Adprom_qsig.Engine.create (Adprom.Pipeline.train_qsig app) in
  let seq_hit = ref false and query_hit = ref false in
  List.iter
    (fun (_, trace) ->
      let worst =
        Adprom.Detector.worst (List.map snd (Adprom.Scoring.monitor engine trace))
      in
      if worst = Adprom.Detector.Data_leak || worst = Adprom.Detector.Out_of_context
      then seq_hit := true)
    malicious_traces;
  List.iter
    (fun (tc, qlog) ->
      List.iter
        (fun (sql, rows) ->
          let v = Adprom_qsig.Engine.check ~rows qengine sql in
          if v.Adprom_qsig.Engine.anomalous then begin
            query_hit := true;
            Printf.printf "  %s: %s\n    %s\n" tc.Runtime.Testcase.name
              (Adprom_qsig.Engine.verdict_to_string v)
              sql
          end)
        qlog)
    (Attack.Qmutate.run_logs case.Dataset.Ca_attacks.scenario app);
  Printf.printf "\nFused two-axis verdict: %s\n"
    (match (!seq_hit, !query_hit) with
    | true, true -> "both axes fired"
    | true, false -> "sequence axis only"
    | false, true -> "query axis only"
    | false, false -> "no alarm")
