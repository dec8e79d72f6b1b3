(* Attack 4 end to end on the supermarket application: the attacker has
   only the binary and splices an fwrite that leaks the targeted data
   right after a DB-output site, Dyninst-style (Sec. III case 2 /
   Table V). The source never changes; the injected calls only exist in
   the instrumented execution.

   Run with:  dune exec examples/supermarket_patch.exe *)

let () =
  let case = Dataset.Ca_attacks.attack4 () in
  let app = case.Dataset.Ca_attacks.app in
  Printf.printf "Attack: %s\n\n" case.Dataset.Ca_attacks.scenario.Attack.Scenario.description;

  Printf.printf "Training the profile on the clean binary ...\n%!";
  let dataset = Adprom.Pipeline.collect app in
  let engine = Adprom.Scoring.create (Adprom.Pipeline.train dataset) in

  (* Run one test case with and without the patch and diff the traces. *)
  let _, patches, _ = Attack.Scenario.apply case.Dataset.Ca_attacks.scenario app in
  let tc = List.hd app.Adprom.Pipeline.test_cases in
  let analysis = dataset.Adprom.Pipeline.analysis in
  let clean_trace, _ = Adprom.Pipeline.run_case ~analysis app tc in
  let patched_trace, _ = Adprom.Pipeline.run_case ~patches ~analysis app tc in
  Printf.printf "clean run: %d calls; patched run: %d calls\n"
    (Array.length clean_trace) (Array.length patched_trace);
  let injected =
    Array.to_list patched_trace
    |> List.filter (fun (e : Runtime.Collector.event) ->
           Analysis.Symbol.name e.Runtime.Collector.symbol = "fwrite")
  in
  List.iter
    (fun (e : Runtime.Collector.event) ->
      Printf.printf "injected call: %s from %s (block %d)\n"
        (Analysis.Symbol.to_string e.Runtime.Collector.symbol)
        e.Runtime.Collector.caller e.Runtime.Collector.block)
    injected;

  let verdicts = Adprom.Scoring.monitor engine patched_trace in
  Printf.printf "\nDetection on the patched run: %s\n"
    (Adprom.Detector.flag_to_string (Adprom.Detector.worst (List.map snd verdicts)));
  let clean_verdicts = Adprom.Scoring.monitor engine clean_trace in
  Printf.printf "Detection on the clean run:   %s\n"
    (Adprom.Detector.flag_to_string (Adprom.Detector.worst (List.map snd clean_verdicts)))
