(* Banking's normal sessions plus one session per test case of every
   banking attack, as one host stream: the fixture of the runtime tests
   of the daemon's static stage. *)

module Pipeline = Adprom.Pipeline
module Transport = Adprom_service.Transport

let runs app analysis =
  List.map (Pipeline.run_case ~analysis app) app.Pipeline.test_cases
  @ List.concat_map
      (fun (c : Dataset.Ca_attacks.case) ->
        if c.Dataset.Ca_attacks.app.Pipeline.name <> app.Pipeline.name then []
        else
          let app', patches, query_rewriter =
            Attack.Scenario.apply c.Dataset.Ca_attacks.scenario app
          in
          let analysis' = Pipeline.analyze_app app' in
          List.map
            (Pipeline.run_case ~patches ?query_rewriter ~analysis:analysis' app')
            app'.Pipeline.test_cases)
      (Dataset.Ca_attacks.all ())

(* The runs' call events interleaved, and the same calls followed by
   each session's executed queries (session [i] ran the [i]th run).
   Only per-session query order matters, so the queries ride at the
   end. *)
let items runs =
  let calls =
    Array.map
      (fun ev -> Transport.Call ev)
      (Adprom.Sessions.interleave ~rng:(Mlkit.Rng.create 3) (List.map fst runs))
  in
  let queries =
    List.concat
      (List.mapi
         (fun i (_, (o : Runtime.Interp.outcome)) ->
           List.map
             (fun (sql, rows) -> Transport.Query { q_session = i; rows; sql })
             o.Runtime.Interp.query_log)
         runs)
  in
  (calls, Array.append calls (Array.of_list queries))

(* An outcome's session reports, scores as IEEE-754 bits: [=] is false
   on NaN scores. *)
let reports (o : Adprom_service.Replay.outcome) =
  List.map
    (fun (r : Adprom_service.Daemon.session_report) ->
      ( { r with verdicts = [] },
        List.map
          (fun (v : Adprom.Detector.verdict) ->
            ({ v with score = 0.0 }, Int64.bits_of_float v.Adprom.Detector.score))
          r.Adprom_service.Daemon.verdicts ))
    o.Adprom_service.Replay.summary.Adprom_service.Daemon.sessions
