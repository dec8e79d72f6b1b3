(* The paper's future work (Sec. VIII) made concrete: monitoring a web
   application. The portal serves HTTP sessions; AD-PROM profiles the
   request handlers' call sequences exactly as for desktop clients, and
   a parameter injection through the vulnerable /search route is flagged
   as a data leak.

   Run with:  dune exec examples/web_portal.exe *)

let () =
  let app = Dataset.Web_portal.app () in
  Printf.printf "Profiling %s from %d recorded sessions ...\n%!"
    app.Adprom.Pipeline.name
    (List.length app.Adprom.Pipeline.test_cases);
  let ds = Adprom.Pipeline.collect app in
  let profile = Adprom.Pipeline.train ds in
  Printf.printf "Profile: %d states, %d observables, threshold %.3f\n\n"
    profile.Adprom.Profile.clustering.Adprom.Reduction.states
    (Array.length profile.Adprom.Profile.alphabet)
    profile.Adprom.Profile.threshold;
  let engine = Adprom.Scoring.create profile in

  let show label (tc : Runtime.Testcase.t) =
    let trace, out =
      Adprom.Pipeline.run_case ~analysis:ds.Adprom.Pipeline.analysis app tc
    in
    let verdict =
      Adprom.Detector.worst (List.map snd (Adprom.Scoring.monitor engine trace))
    in
    Printf.printf "%-18s requests=%d leaked_values=%d verdict=%s\n" label
      (List.length tc.Runtime.Testcase.requests)
      out.Runtime.Interp.leaked_values
      (Adprom.Detector.flag_to_string verdict);
    (label, out)
  in
  let _ = show "normal session" (List.hd app.Adprom.Pipeline.test_cases) in
  let _, out = show "injected session" Dataset.Web_portal.injection_session in
  Printf.printf "\nResponse to GET /search?q=%%' OR '1'='1 :\n";
  List.iteri
    (fun i line -> if i < 5 then Printf.printf "  %s\n" line)
    (String.split_on_char '\n' out.Runtime.Interp.responses);
  Printf.printf "  ... (the whole customer table followed)\n"
