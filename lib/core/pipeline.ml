type app = {
  name : string;
  source : string;
  dbms : string;
  setup_db : Sqldb.Engine.t -> unit;
  test_cases : Runtime.Testcase.t list;
}

type dataset = {
  app : app;
  analysis : Analysis.Analyzer.t;
  traces : (Runtime.Testcase.t * Runtime.Collector.trace) list;
  windows : Window.t list;
}

module Otrace = Adprom_obs.Trace

let analyze_app app =
  Otrace.with_span "pipeline.analyze_app"
    ~attrs:(fun () -> [ ("app", app.name) ])
    (fun () ->
      let program =
        Otrace.with_span "applang.parse" (fun () ->
            Applang.Parser.parse_program app.source)
      in
      Analysis.Analyzer.analyze program)

let fresh_engine app =
  let engine = Sqldb.Engine.create () in
  app.setup_db engine;
  engine

let run_case ?(patches = []) ?query_rewriter ~analysis app tc =
  Runtime.Interp.collect_trace ~patches ?query_rewriter ~analysis
    ~engine:(fresh_engine app) tc

(* [f tc run] over the test cases [tc] of [app], each [run] on its own
   copy of one seeded engine: the runs [run_case] gives, with the
   seeding paid once. *)
let map_cases ~analysis app f =
  let template = fresh_engine app in
  List.map
    (fun tc ->
      f tc (Runtime.Interp.collect_trace ~analysis ~engine:(Sqldb.Engine.copy template) tc))
    app.test_cases

let collect app =
  Otrace.with_span "pipeline.collect"
    ~attrs:(fun () ->
      [ ("app", app.name); ("cases", string_of_int (List.length app.test_cases)) ])
  @@ fun () ->
  let analysis = analyze_app app in
  let traces =
    Otrace.with_span "pipeline.run_cases" (fun () ->
        map_cases ~analysis app (fun tc (trace, _) -> (tc, trace)))
  in
  let windows =
    Otrace.with_span "pipeline.windows" (fun () ->
        List.concat_map (fun (_, trace) -> Window.of_trace ~window:15 trace) traces)
  in
  { app; analysis; traces; windows }

let adprom_params = Profile.default_params

let cmarkov_params =
  { Profile.default_params with Profile.use_labels = false; track_callers = false }

let train ?(params = adprom_params) dataset =
  let windows =
    if params.Profile.window = 15 then dataset.windows
    else
      List.concat_map
        (fun (_, trace) -> Window.of_trace ~window:params.Profile.window trace)
        dataset.traces
  in
  Profile.train ~params ~analysis:dataset.analysis windows

let train_engine dataset = Scoring.create (train dataset)

let collect_outcomes ?analysis app =
  let analysis = match analysis with Some a -> a | None -> analyze_app app in
  map_cases ~analysis app (fun _ (_, outcome) -> outcome)

let train_qsig ?analysis app = Audit.learn (collect_outcomes ?analysis app)

let train_qsig_engine app = Adprom_qsig.Engine.create (train_qsig app)
