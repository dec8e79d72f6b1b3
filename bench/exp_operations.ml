(* Operational experiments beyond the paper's evaluation:

   - interleaved-sessions: why the monitor must demultiplex concurrent
     processes before windowing (session-unaware windows alarm on
     perfectly normal activity);
   - drift: the Sec. VII mitigation — incremental retraining
     (Profile.extend) absorbs newly observed legitimate behaviour and
     removes its false positives without a full retrain. *)

let sessions () =
  Common.heading "Interleaved sessions: naive vs per-session windowing (normal traffic)";
  let t = Lazy.force Common.ca_banking in
  let ds = t.Common.dataset in
  let engine = Lazy.force t.Common.adprom_engine in
  let rng = Mlkit.Rng.create 31337 in
  let traces = List.map snd ds.Adprom.Pipeline.traces in
  let groups =
    (* batches of 4 concurrent sessions *)
    let rec chunk acc cur n = function
      | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
      | x :: rest ->
          if n = 4 then chunk (List.rev cur :: acc) [ x ] 1 rest
          else chunk acc (x :: cur) (n + 1) rest
    in
    chunk [] [] 0 traces
  in
  let evaluate windows_of =
    let alarms = ref 0 and total = ref 0 in
    List.iter
      (fun group ->
        let host = Adprom.Sessions.interleave ~rng group in
        List.iter
          (fun w ->
            incr total;
            if (Adprom.Scoring.classify engine w).Adprom.Detector.flag <> Adprom.Detector.Normal
            then incr alarms)
          (windows_of host))
      groups;
    (!alarms, !total)
  in
  let naive_alarms, naive_total = evaluate (Adprom.Sessions.windows_naive ~window:15) in
  let demux_alarms, demux_total =
    evaluate (Adprom.Sessions.windows_per_session ~window:15)
  in
  Adprom.Report.print
    ~header:[ "windowing"; "windows"; "false alarms"; "FP rate" ]
    [
      [
        "host stream (naive)";
        string_of_int naive_total;
        string_of_int naive_alarms;
        Adprom.Report.percent_cell (float_of_int naive_alarms /. float_of_int (max 1 naive_total));
      ];
      [
        "per session (demux)";
        string_of_int demux_total;
        string_of_int demux_alarms;
        Adprom.Report.percent_cell (float_of_int demux_alarms /. float_of_int (max 1 demux_total));
      ];
    ];
  Printf.printf
    "\nExpected shape: interleaving fabricates call transitions, so the naive\n\
     monitor alarms on normal traffic; per-session demultiplexing does not.\n"

let drift () =
  Common.heading "Incremental retraining (Sec. VII): absorbing new legitimate behaviour";
  (* Train on sessions that only ever look patients up; the department
     report is a legitimate feature the training never exercised. *)
  let app = Dataset.Ca_hospital.app () in
  let analysis = Adprom.Pipeline.analyze_app app in
  let run tc = fst (Adprom.Pipeline.run_case ~analysis app tc) in
  let narrow =
    List.init 30 (fun i ->
        let pid = string_of_int (1000 + (i mod 25)) in
        Runtime.Testcase.make
          ~input:(if i mod 2 = 0 then [ "2"; pid; "0" ] else [ "3"; pid; "0" ])
          (Printf.sprintf "narrow-%d" i))
  in
  let rest =
    List.init 15 (fun i -> Runtime.Testcase.make ~input:[ "6"; "0" ] (Printf.sprintf "new-%d" i))
  in
  let windows_of tcs = List.concat_map (fun tc -> Adprom.Window.of_trace (run tc)) tcs in
  let train_windows = windows_of narrow in
  let new_windows = windows_of rest in
  let profile = Adprom.Profile.train ~analysis train_windows in
  let fp p ws =
    let engine = Adprom.Scoring.create p in
    List.length
      (List.filter
         (fun w -> (Adprom.Scoring.classify engine w).Adprom.Detector.flag <> Adprom.Detector.Normal)
         ws)
  in
  let before = fp profile new_windows in
  let extended = Adprom.Profile.extend profile new_windows in
  let after = fp extended new_windows in
  let still_detects =
    let rng = Mlkit.Rng.create 7 in
    let anomalies =
      Attack.Synthetic.batch ~rng ~legitimate:profile.Adprom.Profile.alphabet ~kind:`S2
        ~count:50 (train_windows @ new_windows)
    in
    fp extended anomalies
  in
  Adprom.Report.print
    ~header:[ ""; "false alarms on the new behaviour"; "A-S2 anomalies still caught" ]
    [
      [ "before extend"; Printf.sprintf "%d / %d" before (List.length new_windows); "-" ];
      [
        "after extend";
        Printf.sprintf "%d / %d" after (List.length new_windows);
        Printf.sprintf "%d / 50" still_detects;
      ];
    ];
  Printf.printf
    "\nExpected shape: the unseen-but-legitimate menu operations alarm before\n\
     the intermediate collection stage and stop alarming after it, while\n\
     foreign-call anomalies are still caught.\n"
