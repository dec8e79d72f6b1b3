(* Attack 2 end to end on the hospital application: a developer-level
   insider edits update_diagnosis so it silently re-queries the patient
   record and appends it to a drop file (Sec. III case 1 / Table V).

   The example prints the diff-like view of the malicious function, then
   shows AD-PROM detecting the new out-of-context calls and connecting
   them to the data source.

   Run with:  dune exec examples/hospital_insider.exe *)

let () =
  let case = Dataset.Ca_attacks.attack2 () in
  let app = case.Dataset.Ca_attacks.app in
  let malicious_app, _, _ = Attack.Scenario.apply case.Dataset.Ca_attacks.scenario app in

  (* Show what the insider changed. *)
  let show_function source name =
    let program = Applang.Parser.parse_program source in
    match Applang.Ast.find_func program name with
    | Some f ->
        print_endline
          (Applang.Pretty.program_to_string { Applang.Ast.funcs = [ f ] })
    | None -> ()
  in
  print_endline "=== update_diagnosis, original ===";
  show_function app.Adprom.Pipeline.source "update_diagnosis";
  print_endline "=== update_diagnosis, after the insider's edit ===";
  show_function malicious_app.Adprom.Pipeline.source "update_diagnosis";

  Printf.printf "Training the profile on the original application ...\n%!";
  let dataset = Adprom.Pipeline.collect app in
  let engine = Adprom.Scoring.create (Adprom.Pipeline.train dataset) in

  let traces = Attack.Scenario.run case.Dataset.Ca_attacks.scenario app in
  let verdicts =
    List.concat_map
      (fun (_, trace) -> List.map snd (Adprom.Scoring.monitor engine trace))
      traces
  in
  let leaks =
    List.filter
      (fun (v : Adprom.Detector.verdict) -> v.Adprom.Detector.flag = Adprom.Detector.Data_leak)
      verdicts
  in
  Printf.printf "\n%d window(s) scored; %d flagged as data leaks; overall: %s\n"
    (List.length verdicts) (List.length leaks)
    (Adprom.Detector.flag_to_string (Adprom.Detector.worst verdicts));
  (* The leaked file is visible in the run outcome too. *)
  match Attack.Scenario.apply case.Dataset.Ca_attacks.scenario app with
  | malicious, patches, _ ->
      let analysis = Adprom.Pipeline.analyze_app malicious in
      let tc =
        Runtime.Testcase.make ~input:[ "4"; "1003"; "migraine"; "0" ] "insider-run"
      in
      let _, outcome = Adprom.Pipeline.run_case ~patches ~analysis malicious tc in
      List.iter
        (fun (path, contents) ->
          if path = "/tmp/drop.dat" then
            Printf.printf "\nExfiltrated file %s contains: %S\n" path contents)
        outcome.Runtime.Interp.files
