(* Table V: AD-PROM vs CMarkov on the five attacks of Sec. V-C. A system
   "detects" an attack when any window of the malicious run is flagged;
   AD-PROM "connects to source" when the Data-Leak flag fires (the
   anomalous window carries a DB-output label). *)

let trained_for (app : Adprom.Pipeline.app) =
  let pick (_, t) =
    (Lazy.force t).Common.dataset.Adprom.Pipeline.app.Adprom.Pipeline.name
    = app.Adprom.Pipeline.name
  in
  match List.find_opt pick (Common.ca_all ()) with
  | Some (_, t) -> Lazy.force t
  | None -> Common.prepare app

(* one compiled engine per profile: windows repeated across the attack
   runs hit the verdict memo instead of re-running the forward pass *)
let verdicts engine traces =
  List.concat_map
    (fun (_, trace) -> List.map snd (Adprom.Scoring.monitor engine trace))
    traces

let run () =
  Common.heading "Table V: AD-PROM vs CMarkov (attack detection)";
  let rows =
    List.map
      (fun (case : Dataset.Ca_attacks.case) ->
        let trained = trained_for case.Dataset.Ca_attacks.app in
        let traces =
          Attack.Scenario.run case.Dataset.Ca_attacks.scenario case.Dataset.Ca_attacks.app
        in
        let describe engine =
          let vs = verdicts engine traces in
          let worst = Adprom.Detector.worst vs in
          match worst with
          | Adprom.Detector.Normal -> "undetected"
          | Adprom.Detector.Data_leak -> "detected & connected to source"
          | Adprom.Detector.Anomalous | Adprom.Detector.Out_of_context -> "detected"
        in
        [
          case.Dataset.Ca_attacks.label;
          case.Dataset.Ca_attacks.app.Adprom.Pipeline.name;
          describe (Lazy.force trained.Common.cmarkov_engine);
          describe (Lazy.force trained.Common.adprom_engine);
        ])
      (Dataset.Ca_attacks.all ())
  in
  Adprom.Report.print ~header:[ ""; "target"; "CMarkov"; "AD-PROM" ] rows;
  Printf.printf
    "\nExpected shape (paper): CMarkov misses Attacks 1 and 3; AD-PROM detects\n\
     all five and connects each to the data source.\n"
