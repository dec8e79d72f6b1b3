(* Bechamel micro-benchmarks of the computational kernels behind the
   paper's timing tables: one Test.make per table/figure workload.

   - table6/*: one intercepted library call under AD-PROM's collector vs
     the simulated ltrace (the per-call costs behind Table VI);
   - table8/*: CFG construction, probability forecast and aggregation on
     App_h (the steps of Table VIII);
   - fig10/*: one scaled-forward evaluation and one Baum-Welch round on
     a mid-sized model (the kernels dominating Fig. 10 / Table VII);
   - kernel/*: the training and scoring kernels at the sizes the serve
     benchmark trains: a compiled window score on the 126-state banking
     model and on the 40-state generated wide program's model, the batch
     scores and one Baum-Welch step over each one's deduplicated
     windows, and the hidden-state clustering of the generated wide
     program: the PCA fit of its call-transition vectors (134 sites x
     270 features), k-means on their projection, and the whole
     [Reduction.cluster] call (CTV build, PCA and k-means). *)

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
  let symtab = Runtime.Ltrace.symtab_of_cfgs analysis.Analysis.Analyzer.cfgs in
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

(* A profile as the serve benchmark trains it (four rounds), with its
   deduplicated, encoded training windows. *)
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
  (profile.Adprom.Profile.model, weighted)

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

(* The banking and generated wide programs as the serve benchmark trains
   them, and the wide program's hidden-state clustering as
   [Profile.train] runs it. *)
let kernel_tests () =
  let params = { Adprom.Pipeline.adprom_params with Adprom.Profile.max_rounds = 4 } in
  let banking = bench_profile (Dataset.Ca_banking.app ()) params in
  let spec =
    { Dataset.Proggen.bash_like with Dataset.Proggen.functions = 24; statements_per_function = 7 }
  in
  let gen = Dataset.Sir.app4 ~cases:120 ~spec () in
  let gen_params = { params with Adprom.Profile.patience = 2; max_states = 100 } in
  let gen_wide = bench_profile gen gen_params in
  let pctm = (Adprom.Pipeline.analyze_app gen).Analysis.Analyzer.pctm in
  let _, ctvs = Adprom.Reduction.ctv_matrix pctm in
  let rows, cols = Mlkit.Matrix.dims ctvs in
  let variance_kept = gen_params.Adprom.Profile.pca_variance in
  let cluster_fraction = gen_params.Adprom.Profile.cluster_fraction in
  let _, projected = Mlkit.Pca.fit_transform ~variance_kept ctvs in
  let kept = snd (Mlkit.Matrix.dims projected) in
  let k = max 2 (int_of_float (cluster_fraction *. float_of_int rows)) in
  let seed = gen_params.Adprom.Profile.seed in
  [
    compiled_score_test banking;
    compiled_score_test gen_wide;
    window_scores_test "banking" banking;
    window_scores_test "gen-wide" gen_wide;
    baum_welch_step_test "banking" banking;
    baum_welch_step_test "gen-wide" gen_wide;
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
  ]

(* OLS estimate of ns per run for every test of [tests]. *)
let measure cfg tests =
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name est rows ->
      let ns =
        match Analyze.OLS.estimates est with
        | Some (v :: _) -> Printf.sprintf "%.1f" v
        | Some [] | None -> "n/a"
      in
      [ name; ns ] :: rows)
    results []

let run () =
  Common.heading "Micro-benchmarks (Bechamel): kernels behind Tables VI/VIII and Fig. 10";
  let quick =
    Test.make_grouped ~name:"adprom" (collector_tests () @ analysis_tests () @ hmm_tests ())
  in
  (* The training kernels run for up to a second each: a longer quota
     gives the regression more than one sample. *)
  let slow = Test.make_grouped ~name:"adprom" (kernel_tests ()) in
  let rows =
    measure (Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ()) quick
    @ measure (Benchmark.cfg ~limit:50 ~quota:(Time.second 3.0) ()) slow
  in
  Adprom.Report.print ~header:[ "kernel"; "ns/run" ] (List.sort compare rows)
