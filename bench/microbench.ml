(* Bechamel micro-benchmarks of the computational kernels behind the
   paper's timing tables: one Test.make per table/figure workload.

   - table6/*: one intercepted library call under AD-PROM's collector vs
     the simulated ltrace (the per-call costs behind Table VI);
   - table8/*: CFG construction, probability forecast and aggregation on
     App_s (the steps of Table VIII);
   - fig10/*: one scaled-forward evaluation and one Baum-Welch round on
     a mid-sized model (the kernels dominating Fig. 10 / Table VII);
   - kernel/*: the training and scoring kernels at the sizes the serve
     benchmark trains: a compiled window score on the 126-state banking
     model and on the 40-state generated wide program's model, the batch
     scores and one Baum-Welch step over each one's deduplicated
     windows, training's pass over the same windows laid out once (a
     prefix table rebuilt for the model, with and without the step
     from it), and the hidden-state clustering of the generated wide
     program: the PCA fit of its call-transition vectors (134 sites x
     270 features), k-means on their projection, and the whole
     [Reduction.cluster] call (CTV build, PCA and k-means), then, with
     the short quota, the static query inference on banking, the
     generated wide program's static stage built and checked
     ([Vet.stage], then [Vet.check_program], which forces the stage's
     query inference), the call-sequence automaton build and a
     whole daemon start (create and drain) on the generated wide
     program, one out-of-language banking window classified (memo
     off) with the automaton gate off and enforcing, and one
     [Scoring.Stream.push] whose window hits the memo (banking) or
     misses it (the generated wide program). The quick group runs
     three times; each row prints its median and range. *)

open Bechamel
open Toolkit

let collector_tests () =
  let hospital = Dataset.Ca_hospital.app () in
  let analysis = Adprom.Pipeline.analyze_app hospital in
  let event =
    { Runtime.Collector.symbol = Analysis.Symbol.lib "printf"; caller = "main"; block = 12 }
  in
  let args = [ Rvalue_args.sample ] in
  let adprom_collector, _ = Runtime.Collector.adprom () in
  let symtab = Runtime.Ltrace.symtab_of_cfgs Analysis.(analysis.Analyzer.front.Front.cfgs) in
  let ltrace_collector, _, log = Runtime.Ltrace.make ~symtab in
  [
    Test.make ~name:"table6/adprom-collector-emit"
      (Staged.stage (fun () ->
           adprom_collector.Runtime.Collector.emit event ~args));
    Test.make ~name:"table6/ltrace-emit"
      (Staged.stage (fun () ->
           if Buffer.length log > 1_000_000 then Buffer.clear log;
           ltrace_collector.Runtime.Collector.emit event ~args));
  ]

let analysis_tests () =
  let source = Dataset.Ca_supermarket.source in
  let program = Applang.Parser.parse_program source in
  let cfgs, _ = Analysis.Cfg_build.build_program program in
  let ctms = Analysis.Forecast.ctms cfgs in
  let callgraph = Analysis.Callgraph.build cfgs in
  [
    Test.make ~name:"table8/build-cfg"
      (Staged.stage (fun () -> ignore (Analysis.Cfg_build.build_program program)));
    Test.make ~name:"table8/probability-forecast"
      (Staged.stage (fun () -> ignore (Analysis.Forecast.ctms cfgs)));
    Test.make ~name:"table8/aggregation"
      (Staged.stage (fun () ->
           ignore (Analysis.Aggregate.program_ctm ctms callgraph ~entry:"main")));
  ]

let hmm_tests () =
  let rng = Mlkit.Rng.create 5 in
  let model = Hmm.random ~rng ~n:40 ~m:30 in
  let seq = Array.init 15 (fun i -> i mod 30) in
  let weighted = List.init 50 (fun i -> (Array.map (fun o -> (o + i) mod 30) seq, 1.0)) in
  [
    Test.make ~name:"fig10/forward-window15"
      (Staged.stage (fun () -> ignore (Hmm.per_symbol_score model seq)));
    Test.make ~name:"fig10/baum-welch-round-50seq"
      (Staged.stage (fun () -> ignore (Hmm.baum_welch_step model weighted)));
  ]

(* A profile as the serve benchmark trains it (four rounds), the
   analysis it was trained on, its deduplicated, encoded training
   windows and its longest training trace. *)
type fixture = {
  profile : Adprom.Profile.t;
  analysis : Analysis.Analyzer.t;
  weighted : (int array * float) list;
  trace : Runtime.Collector.trace;
}

let bench_profile app params =
  let dataset = Adprom.Pipeline.collect app in
  let profile = Adprom.Pipeline.train ~params dataset in
  let index = Analysis.Symbol.Table.find_opt profile.Adprom.Profile.obs_index in
  let weighted =
    List.filter_map
      (fun (w, weight) ->
        Option.map (fun codes -> (codes, weight)) (Adprom.Window.encode ~index w))
      (Adprom.Window.dedup dataset.Adprom.Pipeline.windows)
  in
  let trace =
    List.fold_left
      (fun longest (_, t) -> if Array.length t > Array.length longest then t else longest)
      [||] dataset.Adprom.Pipeline.traces
  in
  { profile; analysis = dataset.Adprom.Pipeline.analysis; weighted; trace }

let model f = (f.profile.Adprom.Profile.model, f.weighted)

(* Compiled scoring of a model's first training window. *)
let compiled_score_test (model, weighted) =
  let scorer = Hmm.Compiled.of_model model in
  let window = fst (List.hd weighted) in
  Test.make
    ~name:(Printf.sprintf "kernel/compiled-score-%dstate" model.Hmm.n)
    (Staged.stage (fun () -> ignore (Hmm.Compiled.per_symbol_score scorer window)))

(* The scores of all of a trained model's distinct training windows, in
   one batch call. *)
let window_scores_test label (model, weighted) =
  let windows = Array.of_list (List.map fst weighted) in
  Test.make
    ~name:(Printf.sprintf "kernel/window-scores-%s-%dwin" label (Array.length windows))
    (Staged.stage (fun () -> ignore (Hmm.per_symbol_scores model windows)))

(* One Baum-Welch step of a trained model over its training windows. *)
let baum_welch_step_test label (model, weighted) =
  Test.make
    ~name:(Printf.sprintf "kernel/baum-welch-step-%s-%dwin" label (List.length weighted))
    (Staged.stage (fun () -> ignore (Hmm.baum_welch_step model weighted)))

(* Training's work per model on a pass laid out once over a trained
   model's training windows: its table rebuilt, then, unless
   [score_only], the step from it. *)
let bw_pass_test ~score_only label (model, weighted) =
  let pass = Hmm.Pass.create model ~weighted:(Array.of_list weighted) ~extra:[||] in
  Test.make
    ~name:(Printf.sprintf "kernel/bw-pass-%s%s" label (if score_only then "-score-only" else ""))
    (Staged.stage (fun () ->
         Hmm.Pass.rebuild pass model;
         if not score_only then ignore (Hmm.Pass.step pass)))

(* One [Scoring.Stream.push] of a fixture's longest trace, cycled:
   with the default memo after two rounds, every window of the cycle
   hits it ([hits]); with a one-entry memo, every window misses, evicts
   the last one and runs the forward pass. *)
let stream_push_test ~name ~hits f =
  let engine =
    Adprom.Scoring.create ?cache_capacity:(if hits then None else Some 1) f.profile
  in
  let st = Adprom.Scoring.Stream.create engine in
  let n = Array.length f.trace in
  let pushed = ref 0 in
  let push () =
    ignore (Adprom.Scoring.Stream.push st f.trace.(!pushed mod n));
    incr pushed
  in
  for _ = 1 to 3 * n do
    push ()
  done;
  let hits0 = Adprom.Scoring.cache_hits engine in
  for _ = 1 to n do
    push ()
  done;
  if Adprom.Scoring.cache_hits engine - hits0 <> if hits then n else 0 then
    failwith (Printf.sprintf "microbench: %s does not %s the memo on every push" name
                (if hits then "hit" else "miss"));
  Test.make ~name (Staged.stage push)

(* The static phase's costs, and the forward pass the enforcing
   automaton gate skips on a window of the profile's own symbols in
   random order: pairwise familiar, but not a factor of any execution. *)
let static_tests ~banking ~gen_wide =
  let stage f = Analysis.Vet.stage f.analysis.Analysis.Analyzer.front in
  let auto = Adprom.Profile_check.automaton banking.profile (stage banking) in
  let profile = banking.profile in
  let rng = Mlkit.Rng.create 42 in
  let n = profile.Adprom.Profile.params.Adprom.Profile.window in
  let window =
    {
      Adprom.Window.obs =
        Array.init n (fun _ ->
            Analysis.Symbol.observable (Mlkit.Rng.pick rng profile.Adprom.Profile.alphabet));
      callers = Array.make n "main";
    }
  in
  let off = Adprom.Scoring.create ~cache_capacity:0 profile in
  let enforce = Adprom.Scoring.create ~cache_capacity:0 profile in
  Adprom.Scoring.set_static_dfa enforce (Some auto);
  Adprom.Scoring.set_gate_enforce enforce true;
  ignore (Adprom.Scoring.classify enforce window);
  if Adprom.Scoring.gate_rejections enforce <> 1 then
    failwith "microbench: the automaton accepts the out-of-language window";
  let classify eng = Staged.stage (fun () -> ignore (Adprom.Scoring.classify eng window)) in
  (* what every daemon start on the program pays: its static stage (the
     automaton, the vet, the static pairs) and an empty drain *)
  let start () =
    let module Daemon = Adprom_service.Daemon in
    ignore
      (Daemon.drain
         (Daemon.create ~shards:1 ~vet_against:gen_wide.analysis
            ~static_gate:Daemon.Gate_explain gen_wide.profile))
  in
  [
    Test.make ~name:"kernel/qstatic-infer-banking"
      (Staged.stage (fun () ->
           ignore
             (Analysis.Qstatic.infer
                banking.analysis.Analysis.Analyzer.front.Analysis.Front.pruned)));
    Test.make ~name:"kernel/vet-program-gen-wide"
      (Staged.stage (fun () -> ignore (Analysis.Vet.check_program (stage gen_wide))));
    Test.make ~name:"kernel/seqauto-build-gen-wide"
      (let s = stage gen_wide in
       Staged.stage (fun () -> ignore (Adprom.Profile_check.automaton gen_wide.profile s)));
    Test.make ~name:"kernel/daemon-start-gen-wide" (Staged.stage start);
    Test.make ~name:"kernel/classify-out-of-language-banking-gate-off" (classify off);
    Test.make ~name:"kernel/classify-out-of-language-banking-gate-enforce"
      (classify enforce);
    stream_push_test ~name:"kernel/stream-push-warm-banking" ~hits:true banking;
    stream_push_test ~name:"kernel/stream-push-miss-gen-wide" ~hits:false gen_wide;
  ]

(* The banking and generated wide programs as the serve benchmark trains
   them, and the wide program's hidden-state clustering as
   [Profile.train] runs it; apart, the static rows and the
   stream pushes on the same fixtures. *)
let kernel_tests () =
  let params = { Adprom.Pipeline.adprom_params with Adprom.Profile.max_rounds = 4 } in
  let banking = bench_profile (Dataset.Ca_banking.app ()) params in
  let spec =
    { Dataset.Proggen.bash_like with Dataset.Proggen.functions = 24; statements_per_function = 7 }
  in
  let gen = Dataset.Sir.app4 ~cases:120 ~spec () in
  let gen_params = { params with Adprom.Profile.patience = 2; max_states = 100 } in
  let gen_wide = bench_profile gen gen_params in
  let pctm = gen_wide.analysis.Analysis.Analyzer.pctm in
  let _, ctvs = Adprom.Reduction.ctv_matrix pctm in
  let rows, cols = Mlkit.Matrix.dims ctvs in
  let variance_kept = gen_params.Adprom.Profile.pca_variance in
  let cluster_fraction = gen_params.Adprom.Profile.cluster_fraction in
  let _, projected = Mlkit.Pca.fit_transform ~variance_kept ctvs in
  let kept = snd (Mlkit.Matrix.dims projected) in
  let k = max 2 (int_of_float (cluster_fraction *. float_of_int rows)) in
  let seed = gen_params.Adprom.Profile.seed in
  ( [
      compiled_score_test (model banking);
      compiled_score_test (model gen_wide);
      window_scores_test "banking" (model banking);
      window_scores_test "gen-wide" (model gen_wide);
      baum_welch_step_test "banking" (model banking);
      baum_welch_step_test "gen-wide" (model gen_wide);
      bw_pass_test ~score_only:false "banking" (model banking);
      bw_pass_test ~score_only:true "banking" (model banking);
      bw_pass_test ~score_only:false "gen-wide" (model gen_wide);
      bw_pass_test ~score_only:true "gen-wide" (model gen_wide);
      Test.make
        ~name:(Printf.sprintf "kernel/pca-fit-gen-wide-ctv-%dx%d" rows cols)
        (Staged.stage (fun () -> ignore (Mlkit.Pca.fit ~variance_kept ctvs)));
      Test.make
        ~name:(Printf.sprintf "kernel/kmeans-gen-wide-%dx%d-k%d" rows kept k)
        (Staged.stage (fun () ->
             ignore (Mlkit.Kmeans.cluster ~rng:(Mlkit.Rng.create seed) ~k projected)));
      Test.make ~name:"kernel/reduction-cluster-gen-wide"
        (Staged.stage (fun () ->
             ignore
               (Adprom.Reduction.cluster ~rng:(Mlkit.Rng.create seed)
                  ~max_states:gen_params.Adprom.Profile.max_states ~cluster_fraction
                  ~pca_variance:variance_kept pctm)));
    ],
    static_tests ~banking ~gen_wide )

(* OLS estimate of ns per run for every test of [tests], [None] where
   the regression has none. *)
let measure cfg tests =
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name est rows ->
      let ns = match Analyze.OLS.estimates est with Some (v :: _) -> Some v | _ -> None in
      (name, ns) :: rows)
    results []

(* Back-to-back runs of one binary can differ by half on a shared host:
   the quick group runs this often, and each of its rows reports the
   median and the range of its estimates. *)
let quick_runs = 3

(* One table row from a test's estimates over its runs. *)
let row name estimates =
  if List.mem None estimates then [ name; "n/a"; "-" ]
  else
    let vs = List.sort compare (List.map Option.get estimates) in
    let n = List.length vs in
    let ns = Printf.sprintf "%.1f" in
    [ name; ns (List.nth vs (n / 2));
      (if n > 1 then ns (List.hd vs) ^ "-" ^ ns (List.nth vs (n - 1)) else "-") ]

let run () =
  Common.heading "Micro-benchmarks (Bechamel): kernels behind Tables VI/VIII and Fig. 10";
  let training, static = kernel_tests () in
  let quick =
    Test.make_grouped ~name:"adprom"
      (collector_tests () @ analysis_tests () @ hmm_tests () @ static)
  in
  (* The training kernels run for up to a second each: a longer quota
     gives the regression more than one sample, and they run once. *)
  let slow = Test.make_grouped ~name:"adprom" training in
  let quick_cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let runs =
    List.init quick_runs (fun _ -> measure quick_cfg quick)
    @ [ measure (Benchmark.cfg ~limit:50 ~quota:(Time.second 3.0) ()) slow ]
  in
  let names = List.sort_uniq compare (List.concat_map (List.map fst) runs) in
  let rows =
    List.map (fun name -> row name (List.filter_map (List.assoc_opt name) runs)) names
  in
  Adprom.Report.print
    ~header:[ "kernel"; "ns/run (median)"; Printf.sprintf "min-max of %d runs" quick_runs ]
    rows
