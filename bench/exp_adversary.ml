(* The full Sec. III adversary model: all eight attack flavors
   (1.1-3.3) against the CA applications, with AD-PROM's verdict and the
   flag raised. Table V covers five of these; the rest exercise the same
   machinery through the remaining vectors (selectivity widening,
   store-to-file reuse, ROP/BROP gadget chains, MITM query rewriting). *)

let trained_for (app : Adprom.Pipeline.app) =
  let pick (_, t) =
    (Lazy.force t).Common.dataset.Adprom.Pipeline.app.Adprom.Pipeline.name
    = app.Adprom.Pipeline.name
  in
  match List.find_opt pick (Common.ca_all ()) with
  | Some (_, t) -> Lazy.force t
  | None -> Common.prepare app

let run () =
  Common.heading "Adversary model (Sec. III): all eight attack flavors vs AD-PROM";
  let rows =
    List.map
      (fun (flavor, (case : Dataset.Ca_attacks.case)) ->
        let trained = trained_for case.Dataset.Ca_attacks.app in
        let traces =
          Attack.Scenario.run case.Dataset.Ca_attacks.scenario case.Dataset.Ca_attacks.app
        in
        let engine = Lazy.force trained.Common.adprom_engine in
        let verdicts =
          List.concat_map
            (fun (_, trace) -> List.map snd (Adprom.Scoring.monitor engine trace))
            traces
        in
        let worst = Adprom.Detector.worst verdicts in
        [
          flavor;
          case.Dataset.Ca_attacks.app.Adprom.Pipeline.name;
          (match worst with
          | Adprom.Detector.Normal -> "undetected"
          | other -> "detected (" ^ Adprom.Detector.flag_to_string other ^ ")");
        ])
      (Dataset.Ca_attacks.adversary_model ())
  in
  Adprom.Report.print ~header:[ "attack flavor"; "target"; "AD-PROM" ] rows;
  Printf.printf
    "\nExpected shape (Sec. III): every flavor changes the call sequences or\n\
     their labels, so AD-PROM detects all eight and ties each to the data\n\
     source via the data-leak flag.\n"
