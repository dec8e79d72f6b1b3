(* Tests for the core AD-PROM library: windows, thresholds, evaluation
   metrics, the reduction pipeline, profile training and the detection
   engine flags. *)

module Symbol = Analysis.Symbol
module Window = Adprom.Window
module Threshold = Adprom.Threshold
module Evaluation = Adprom.Evaluation
module Reduction = Adprom.Reduction
module Profile = Adprom.Profile
module Detector = Adprom.Detector
module Scoring = Adprom.Scoring
module Pipeline = Adprom.Pipeline

let event name caller =
  { Runtime.Collector.symbol = Symbol.lib name; caller; block = -1 }

let trace_of names = Array.of_list (List.map (fun n -> event n "main") names)

(* --- windows --------------------------------------------------------------- *)

let test_window_sliding () =
  let trace = trace_of [ "a"; "b"; "c"; "d"; "e" ] in
  let ws = Window.of_trace ~window:3 trace in
  Alcotest.(check int) "len - n + 1 windows" 3 (List.length ws);
  let first = List.hd ws in
  Alcotest.(check int) "window length" 3 (Array.length first.Window.obs)

let test_window_short_trace () =
  let ws = Window.of_trace ~window:15 (trace_of [ "a"; "b" ]) in
  Alcotest.(check int) "one short window" 1 (List.length ws);
  Alcotest.(check int) "short window keeps the whole trace" 2
    (Array.length (List.hd ws).Window.obs);
  Alcotest.(check int) "empty trace yields nothing" 0
    (List.length (Window.of_trace ~window:15 [||]))

let test_window_dedup () =
  let w = List.hd (Window.of_trace ~window:2 (trace_of [ "a"; "b" ])) in
  let deduped = Window.dedup [ w; w; w ] in
  Alcotest.(check int) "one unique window" 1 (List.length deduped);
  Alcotest.(check (float 0.0)) "weight is the multiplicity" 3.0 (snd (List.hd deduped))

let test_window_labels () =
  let labeled =
    [|
      { Runtime.Collector.symbol = Symbol.lib ~label:6 "printf"; caller = "f"; block = 6 };
      event "puts" "f";
    |]
  in
  let w = List.hd (Window.of_trace ~window:5 labeled) in
  Alcotest.(check bool) "labeled output detected" true (Window.contains_labeled_output w);
  let stripped = Window.strip_labels w in
  Alcotest.(check bool) "stripping removes the label" false
    (Window.contains_labeled_output stripped)

let test_window_encode () =
  let w = List.hd (Window.of_trace ~window:3 (trace_of [ "a"; "b"; "a" ])) in
  let index s = if Symbol.name s = "a" then Some 0 else if Symbol.name s = "b" then Some 1 else None in
  (match Window.encode ~index w with
  | Some codes -> Alcotest.(check (array int)) "encoded" [| 0; 1; 0 |] codes
  | None -> Alcotest.fail "should encode");
  let w2 = List.hd (Window.of_trace ~window:3 (trace_of [ "a"; "zz"; "a" ])) in
  Alcotest.(check bool) "unknown symbol fails encoding" true (Window.encode ~index w2 = None)

(* --- threshold -------------------------------------------------------------- *)

let test_threshold_strategies () =
  let scores = [| -1.0; -2.0; -0.5; neg_infinity |] in
  Alcotest.(check (float 1e-9)) "fixed" (-3.0) (Threshold.select (Threshold.Fixed (-3.0)) scores);
  Alcotest.(check (float 1e-9)) "min margin ignores -inf" (-2.5)
    (Threshold.select (Threshold.Min_margin 0.5) scores);
  Alcotest.(check (float 1e-9)) "quantile 0 is the min" (-2.0)
    (Threshold.select (Threshold.Quantile 0.0) scores);
  Alcotest.(check (float 1e-9)) "no finite scores falls back" (-1e9)
    (Threshold.select (Threshold.Min_margin 1.0) [| neg_infinity |])

let test_threshold_adaptive () =
  let t = Threshold.adaptive ~current:(-2.0) ~recent_fp_rate:0.2 ~target_fp_rate:0.01 in
  Alcotest.(check bool) "too many FPs lowers the threshold" true (t < -2.0);
  let t2 = Threshold.adaptive ~current:(-2.0) ~recent_fp_rate:0.0 ~target_fp_rate:0.01 in
  Alcotest.(check bool) "quiet period raises it slightly" true (t2 > -2.0)

(* --- evaluation -------------------------------------------------------------- *)

let test_evaluation_metrics () =
  let c = { Evaluation.tp = 90; tn = 900; fp = 10; fn = 10 } in
  Alcotest.(check (float 1e-9)) "fp rate" (10.0 /. 910.0) (Evaluation.fp_rate c);
  Alcotest.(check (float 1e-9)) "fn rate" 0.1 (Evaluation.fn_rate c);
  Alcotest.(check (float 1e-9)) "precision" 0.9 (Evaluation.precision c);
  Alcotest.(check (float 1e-9)) "recall" 0.9 (Evaluation.recall c);
  Alcotest.(check (float 1e-4)) "accuracy" 0.9802 (Evaluation.accuracy c);
  Alcotest.(check int) "total" 1010 (Evaluation.total c)

let test_evaluation_observe_merge () =
  let c =
    Evaluation.empty
    |> fun c -> Evaluation.observe c ~anomalous:true ~flagged:true
    |> fun c -> Evaluation.observe c ~anomalous:false ~flagged:true
    |> fun c -> Evaluation.observe c ~anomalous:false ~flagged:false
    |> fun c -> Evaluation.observe c ~anomalous:true ~flagged:false
  in
  Alcotest.(check bool) "all four cells" true
    (c.Evaluation.tp = 1 && c.Evaluation.fp = 1 && c.Evaluation.tn = 1 && c.Evaluation.fn = 1);
  let m = Evaluation.merge c c in
  Alcotest.(check int) "merge doubles" 8 (Evaluation.total m)

let test_evaluation_curve_monotone () =
  let normal = [| -1.0; -1.5; -0.5 |] and anomalous = [| -5.0; -4.0; -0.8 |] in
  let thresholds = Evaluation.sweep_thresholds ~normal_scores:normal ~anomalous_scores:anomalous 50 in
  let curve = Evaluation.curve ~normal_scores:normal ~anomalous_scores:anomalous ~thresholds in
  let rec check_monotone = function
    | (_, fp1, fn1) :: ((_, fp2, fn2) :: _ as rest) ->
        Alcotest.(check bool) "fp non-decreasing in threshold" true (fp2 >= fp1 -. 1e-12);
        Alcotest.(check bool) "fn non-increasing in threshold" true (fn2 <= fn1 +. 1e-12);
        check_monotone rest
    | _ -> ()
  in
  check_monotone curve

let test_kfold () =
  let xs = List.init 10 (fun i -> i) in
  let folds = Evaluation.kfold ~k:3 xs in
  Alcotest.(check int) "three folds" 3 (List.length folds);
  List.iter
    (fun (train, valid) ->
      Alcotest.(check int) "partition" 10 (List.length train + List.length valid);
      List.iter (fun v -> Alcotest.(check bool) "disjoint" false (List.mem v train)) valid)
    folds;
  let all_valid = List.concat_map snd folds in
  Alcotest.(check (list int)) "validation folds cover everything" xs (List.sort compare all_valid)

(* --- reduction ---------------------------------------------------------------- *)

let fig_pctm () =
  let src =
    {|
      fun main() {
        let r = pq_exec(conn, "q");
        printf("%s", pq_getvalue(r, 0, 0));
        puts("done");
      }
    |}
  in
  (Analysis.Analyzer.analyze (Applang.Parser.parse_program src)).Analysis.Analyzer.pctm

let test_reduction_ctv_shape () =
  let pctm = fig_pctm () in
  let sites, ctvs = Reduction.ctv_matrix pctm in
  let n = Array.length sites in
  let rows, cols = Mlkit.Matrix.dims ctvs in
  Alcotest.(check int) "one row per site" n rows;
  Alcotest.(check int) "dimension 2(n+1)" (2 * (n + 1)) cols

(* [Reduction.ctv_matrix] as it stood: one [Ctm.get] per cell. *)
let dense_ctv_matrix pctm =
  let sites = Array.of_list (Analysis.Ctm.calls pctm) in
  let n = Array.length sites in
  let get = Analysis.Ctm.get pctm in
  ( sites,
    Mlkit.Matrix.init n (2 * (n + 1)) (fun i j ->
        let c = sites.(i) in
        if j = 0 then get c Symbol.Exit
        else if j <= n then get c sites.(j - 1)
        else if j = n + 1 then get Symbol.Entry c
        else get sites.(j - n - 2) c) )

let database_apps () =
  [
    Dataset.Ca_hospital.app ();
    Dataset.Ca_banking.app ();
    Dataset.Ca_supermarket.app ();
    Dataset.Web_portal.app ();
  ]

let builtin_apps () = database_apps () @ List.map snd (Dataset.Sir.all ())

(* The sparse fill lands every pCTM entry where the dense reference
   reads it, bit for bit, on every built-in app, on the figure program
   and on a pCTM with a self-call, which fills a successor and a
   predecessor column of the same row. *)
let test_reduction_ctv_sparse_matches_dense () =
  let self_call =
    let t = Analysis.Ctm.create () in
    let a = Symbol.lib "a" and b = Symbol.lib "b" in
    Analysis.Ctm.set t Symbol.Entry a 1.0;
    Analysis.Ctm.set t a a 0.5;
    Analysis.Ctm.set t a b 0.5;
    Analysis.Ctm.set t b a 0.25;
    Analysis.Ctm.set t b Symbol.Exit 0.75;
    Analysis.Ctm.set t Symbol.Entry Symbol.Exit 0.125;
    t
  in
  let pctms =
    ("figure", fig_pctm ())
    :: ("self-call", self_call)
    :: List.map
         (fun app -> (app.Pipeline.name, (Pipeline.analyze_app app).Analysis.Analyzer.pctm))
         (builtin_apps ())
  in
  List.iter
    (fun (name, pctm) ->
      let sites, ctvs = Reduction.ctv_matrix pctm in
      let sites', expected = dense_ctv_matrix pctm in
      Alcotest.(check bool) (name ^ ": same sites") true (sites = sites');
      Alcotest.(check bool) (name ^ ": same shape") true
        (Mlkit.Matrix.dims ctvs = Mlkit.Matrix.dims expected);
      Alcotest.(check bool) (name ^ ": same cells, bit for bit") true
        (Array.for_all2
           (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
           ctvs.Mlkit.Matrix.data expected.Mlkit.Matrix.data))
    pctms;
  let _, ctvs = Reduction.ctv_matrix self_call in
  Alcotest.(check (float 0.0)) "self-call successor cell" 0.5 (Mlkit.Matrix.get ctvs 0 1);
  Alcotest.(check (float 0.0)) "self-call predecessor cell" 0.5 (Mlkit.Matrix.get ctvs 0 4)

let test_reduction_identity_when_small () =
  let pctm = fig_pctm () in
  let rng = Mlkit.Rng.create 3 in
  let c = Reduction.cluster ~rng ~max_states:100 ~cluster_fraction:0.3 ~pca_variance:0.95 pctm in
  Alcotest.(check bool) "no reduction below the threshold" false c.Reduction.reduced;
  Alcotest.(check int) "one state per site" (Array.length c.Reduction.sites) c.Reduction.states

let test_reduction_clusters_when_large () =
  let pctm = fig_pctm () in
  let rng = Mlkit.Rng.create 3 in
  let c = Reduction.cluster ~rng ~max_states:2 ~cluster_fraction:0.5 ~pca_variance:0.95 pctm in
  Alcotest.(check bool) "k-means ran" true c.Reduction.reduced;
  Alcotest.(check bool) "fewer states than sites" true
    (c.Reduction.states < Array.length c.Reduction.sites)

(* The generated wide program the gen-wide benchmark trains on: its
   134 sites are more than [max_states], and their CTVs (2(n+1) wide)
   take the Gram-side PCA. K-means under the same seed must assign
   every site as it does on the covariance-side projection. *)
let test_reduction_gram_matches_oracle () =
  let spec =
    { Dataset.Proggen.bash_like with Dataset.Proggen.functions = 24; statements_per_function = 7 }
  in
  let pctm = (Pipeline.analyze_app (Dataset.Sir.app4 ~spec ())).Analysis.Analyzer.pctm in
  let c =
    Reduction.cluster ~rng:(Mlkit.Rng.create 42) ~max_states:100 ~cluster_fraction:0.3
      ~pca_variance:0.95 pctm
  in
  let _, ctvs = Reduction.ctv_matrix pctm in
  let n, cols = Mlkit.Matrix.dims ctvs in
  Alcotest.(check bool) "wide CTVs" true (n < cols && c.Reduction.reduced);
  let oracle = Pca_oracle.fit ~variance_kept:0.95 ctvs in
  let k = max 2 (int_of_float (0.3 *. float_of_int n)) in
  let expected =
    Mlkit.Kmeans.cluster ~rng:(Mlkit.Rng.create 42) ~k (Mlkit.Pca.transform oracle ctvs)
  in
  Alcotest.(check (array int)) "oracle's assignment" expected.Mlkit.Kmeans.assignment
    c.Reduction.assignment

let test_reduction_init_hmm_valid () =
  let pctm = fig_pctm () in
  let rng = Mlkit.Rng.create 3 in
  let c = Reduction.cluster ~rng ~max_states:100 ~cluster_fraction:0.3 ~pca_variance:0.95 pctm in
  let alphabet =
    Array.of_list (List.sort_uniq Symbol.compare (List.map Symbol.observable (Analysis.Ctm.calls pctm)))
  in
  let model = Reduction.init_hmm pctm c ~alphabet in
  Alcotest.(check bool) "initialized model is stochastic" true
    (match Hmm.validate model with Ok () -> true | Error _ -> false)

(* --- profile + detector (end to end on a small app) ---------------------------- *)

let small_app =
  {
    Pipeline.name = "test-app";
    source =
      {|
        fun main() {
          let conn = db_connect("pg");
          let id = scanf();
          let q = strcat(strcat("SELECT name FROM t WHERE id = '", id), "'");
          let r = pq_exec(conn, q);
          let n = pq_ntuples(r);
          for (let i = 0; i < n; i = i + 1) {
            printf("%s\n", pq_getvalue(r, i, 0));
          }
          puts("bye");
        }
      |};
    dbms = "PostgreSQL";
    setup_db =
      (fun e ->
        ignore (Sqldb.Engine.exec e "CREATE TABLE t (id, name)");
        for i = 0 to 9 do
          ignore
            (Sqldb.Engine.exec e (Printf.sprintf "INSERT INTO t VALUES (%d, 'n%d')" i i))
        done);
    test_cases =
      List.init 10 (fun i -> Runtime.Testcase.make ~input:[ string_of_int i ] (Printf.sprintf "c%d" i));
  }

let trained = lazy (
  let ds = Pipeline.collect small_app in
  (ds, Pipeline.train ds))

let test_profile_training () =
  let _, profile = Lazy.force trained in
  Alcotest.(check bool) "finite threshold" true (Float.is_finite profile.Profile.threshold);
  Alcotest.(check bool) "model valid" true
    (match Hmm.validate profile.Profile.model with Ok () -> true | Error _ -> false);
  Alcotest.(check bool) "ran at least one round" true (profile.Profile.rounds_run >= 1)

(* Training reuses per-call scratch in its kernels: a second training
   run in the same process must give the identical serialized profile. *)
let test_profile_retrain_identical () =
  let ds = Pipeline.collect (Dataset.Ca_banking.app ()) in
  let params = { Pipeline.adprom_params with Profile.max_rounds = 4 } in
  let p1 = Pipeline.train ~params ds and p2 = Pipeline.train ~params ds in
  let bits (p : Profile.t) =
    List.map Int64.bits_of_float
      ((p.Profile.threshold :: p.Profile.csds_history)
      @ Array.to_list p.Profile.model.Hmm.a.Mlkit.Matrix.data
      @ Array.to_list p.Profile.model.Hmm.b.Mlkit.Matrix.data)
  in
  Alcotest.(check string) "identical serialized profiles" (Adprom.Profile_io.to_string p1)
    (Adprom.Profile_io.to_string p2);
  Alcotest.(check bool) "identical model, threshold and CSDS bits" true (bits p1 = bits p2)

(* With [Min_margin m] the threshold is the final model's lowest finite
   score over every training window, minus [m]. Training and CSDS
   windows together are all of them, so this holds whichever round's
   CSDS scores the threshold pass reuses, if they are the final
   model's. *)
let test_profile_threshold_from_final_model () =
  let check name (ds : Pipeline.dataset) (profile : Profile.t) =
    let margin =
      match profile.Profile.params.Profile.threshold_strategy with
      | Threshold.Min_margin m -> m
      | Threshold.Fixed _ | Threshold.Quantile _ -> Alcotest.fail "expected Min_margin"
    in
    let lo =
      List.fold_left
        (fun acc w ->
          let s = Profile.score profile w in
          if Float.is_finite s then Float.min acc s else acc)
        infinity ds.Pipeline.windows
    in
    Alcotest.(check int64) name
      (Int64.bits_of_float (lo -. margin))
      (Int64.bits_of_float profile.Profile.threshold)
  in
  let ds, profile = Lazy.force trained in
  check "small app" ds profile;
  let ds = Pipeline.collect (Dataset.Ca_banking.app ()) in
  let params = { Pipeline.adprom_params with Profile.max_rounds = 4 } in
  check "banking, 4 rounds" ds (Pipeline.train ~params ds)

(* The two profiles the serve benchmark trains, pinned by the MD5 of
   their serialised form (x86-64 Linux, glibc libm): the training
   kernels must keep them byte for byte. The serialised form holds
   neither the CSDS score of each round nor the round count, so a
   window scorer that drifted could still pick the same best model:
   both are pinned too, the scores by bit pattern. *)
let test_profile_bench_digests () =
  let check label app params ~digest ~history ~rounds =
    let profile = Pipeline.train ~params (Pipeline.collect app) in
    Alcotest.(check string) (label ^ ": digest") digest
      (Digest.to_hex (Digest.string (Adprom.Profile_io.to_string profile)));
    Alcotest.(check (list string)) (label ^ ": CSDS history") history
      (List.map (Printf.sprintf "%h") profile.Profile.csds_history);
    Alcotest.(check int) (label ^ ": rounds run") rounds profile.Profile.rounds_run
  in
  check "banking, 4 rounds" (Dataset.Ca_banking.app ())
    { Pipeline.adprom_params with Profile.max_rounds = 4 }
    ~digest:"c0dff9a06b5fb5a9e9095d6730230768"
    ~history:
      [
        "-0x1.e5be8b42fcd4ep+0";
        "-0x1.d63ffbbd8d41p-2";
        "-0x1.ad662faffa473p-2";
        "-0x1.a44fa611abcfbp-2";
        "-0x1.a0070a1510a48p-2";
      ]
    ~rounds:4;
  let spec =
    { Dataset.Proggen.bash_like with Dataset.Proggen.functions = 24; statements_per_function = 7 }
  in
  check "gen-wide: 24x7, 100 states, 4 rounds"
    (Dataset.Sir.app4 ~cases:120 ~spec ())
    { Pipeline.adprom_params with Profile.max_rounds = 4; patience = 2; max_states = 100 }
    ~digest:"caf01298c01fc400c68ee3249045e590"
    ~history:
      [
        "-0x1.d345d7068b6a7p+1";
        "-0x1.49d8fceac87f6p+1";
        "-0x1.40551c76647d8p+1";
        "-0x1.35cbbd0e4d39p+1";
        "-0x1.26e34cf7d3254p+1";
      ]
    ~rounds:4

(* Training's E-steps and its batch window scoring (every round's CSDS
   scores and the threshold pass) run on C threads that each call joins
   before it returns, and on no OCaml domain: once training returns,
   /proc/self/task is back to its count before training, and the
   process can still fork, as [serve --listen], [route] and the
   benchmark's TCP workload do. *)
let test_fork_after_training () =
  let tasks () =
    match Sys.readdir "/proc/self/task" with
    | names -> Some (Array.length names)
    | exception Sys_error _ -> None
  in
  let before = tasks () in
  let params = { Pipeline.adprom_params with Profile.max_rounds = 4 } in
  ignore (Pipeline.train ~params (Pipeline.collect (Dataset.Ca_banking.app ())));
  (match before with
  | None -> ()
  | Some n ->
      (* a joined thread can stay listed for a moment while the kernel
         tears it down *)
      let rec settled tries =
        match tasks () with
        | Some k when k <> n && tries > 0 ->
            Unix.sleepf 0.01;
            settled (tries - 1)
        | k -> k
      in
      Alcotest.(check (option int)) "threads after training" (Some n) (settled 100));
  match Unix.fork () with
  | 0 -> Unix._exit 0
  | pid ->
      let _, status = Unix.waitpid [] pid in
      Alcotest.(check bool) "child exits 0" true (status = Unix.WEXITED 0)

(* A stored profile with a NaN in pi, in an A row or in a B row must
   not load: NaN passes no comparison, so every model check has to be
   one that NaN fails. *)
let test_profile_io_rejects_nan () =
  let _, profile = Lazy.force trained in
  let lines = String.split_on_char '\n' (Adprom.Profile_io.to_string profile) in
  let loads ls =
    match Adprom.Profile_io.of_string (String.concat "\n" ls) with Ok _ -> true | Error _ -> false
  in
  Alcotest.(check bool) "the unmodified profile loads" true (loads lines);
  (* [lines] with [f] applied to the first line that starts with
     [prefix] or, with [~after], to the line after it: a table's first
     row *)
  let edit ?(after = false) prefix f =
    let seen = ref false and armed = ref false in
    List.map
      (fun l ->
        if !armed then begin
          armed := false;
          f l
        end
        else if (not !seen) && String.starts_with ~prefix l then begin
          seen := true;
          if after then begin
            armed := true;
            l
          end
          else f l
        end
        else l)
      lines
  in
  (* the first value of a [pi], dense ([d]) or sparse ([s]) row line *)
  let poison l =
    match String.split_on_char ' ' l with
    | ("pi" | "d") as tag :: _ :: rest -> String.concat " " (tag :: "nan" :: rest)
    | "s" :: entry :: rest ->
        let j = List.hd (String.split_on_char ':' entry) in
        String.concat " " ("s" :: (j ^ ":nan") :: rest)
    | _ -> Alcotest.fail ("not a row line: " ^ l)
  in
  let rejected label ls = Alcotest.(check bool) label false (loads ls) in
  rejected "NaN in pi" (edit "pi " poison);
  rejected "NaN in an A row" (edit ~after:true "a " poison);
  rejected "NaN in a B row" (edit ~after:true "b " poison);
  (* a sparse row that lists every entry and sums to 1 without its NaN:
     the NaN must stay NaN, not become the implicit-entry fill *)
  let n = profile.Profile.model.Hmm.n in
  let explicit_nan_row =
    "s 0:nan 1:1 " ^ String.concat " " (List.init (n - 2) (fun k -> Printf.sprintf "%d:0" (k + 2)))
  in
  rejected "NaN in a fully explicit sparse row" (edit ~after:true "a " (fun _ -> explicit_nan_row))

let test_profile_scores_normals_high () =
  let ds, profile = Lazy.force trained in
  List.iter
    (fun w ->
      let s = Profile.score profile w in
      Alcotest.(check bool) "normal window above threshold" true
        (s >= profile.Profile.threshold))
    ds.Pipeline.windows

let test_detector_flags () =
  let ds, profile = Lazy.force trained in
  let engine = Scoring.create profile in
  let w = List.hd ds.Pipeline.windows in
  (* Normal *)
  Alcotest.(check bool) "normal flag" true
    ((Scoring.classify engine w).Detector.flag = Detector.Normal);
  (* Unknown call: anomalous, and with a label: data leak *)
  let evil = { Window.obs = Array.copy w.Window.obs; callers = Array.copy w.Window.callers } in
  evil.Window.obs.(0) <- Symbol.lib "evil_call";
  let v = Scoring.classify engine evil in
  Alcotest.(check bool) "unknown symbol flagged" true (v.Detector.flag <> Detector.Normal);
  Alcotest.(check bool) "unknown symbol reported" true v.Detector.unknown_symbol;
  (* Out of context: known call, never-seen caller *)
  let ooc = { Window.obs = Array.copy w.Window.obs; callers = Array.copy w.Window.callers } in
  ooc.Window.callers.(0) <- "never_seen_function";
  let v = Scoring.classify engine ooc in
  Alcotest.(check bool) "out-of-context pair reported" true (v.Detector.unknown_pair <> None)

let test_detector_explain () =
  let ds, profile = Lazy.force trained in
  let w = List.hd ds.Pipeline.windows in
  let evil = { Window.obs = Array.copy w.Window.obs; callers = Array.copy w.Window.callers } in
  let pos = Array.length evil.Window.obs - 1 in
  evil.Window.obs.(pos) <- Symbol.lib "evil_call";
  (match Detector.explain ~top:1 profile evil with
  | [ s ] ->
      Alcotest.(check int) "unknown symbol ranked first" pos s.Detector.position;
      Alcotest.(check bool) "infinite surprisal" true (s.Detector.surprisal = infinity)
  | _ -> Alcotest.fail "expected one surprise");
  (* On a normal window, surprisals are finite and sorted. *)
  match Detector.explain ~top:3 profile w with
  | (a :: b :: _ : Detector.surprise list) ->
      Alcotest.(check bool) "sorted descending" true (a.Detector.surprisal >= b.Detector.surprisal);
      Alcotest.(check bool) "finite on normal data" true (Float.is_finite a.Detector.surprisal)
  | _ -> Alcotest.fail "expected several surprises"

let test_detector_worst_ordering () =
  let mk flag = { Detector.flag; score = 0.0; unknown_symbol = false; unknown_pair = None } in
  Alcotest.(check bool) "DL dominates" true
    (Detector.worst [ mk Detector.Anomalous; mk Detector.Data_leak; mk Detector.Normal ]
    = Detector.Data_leak);
  Alcotest.(check bool) "empty list is normal" true (Detector.worst [] = Detector.Normal)

(* [Pipeline.collect] and [collect_outcomes] seed each app's database
   once and run every case on a copy: for every built-in database app,
   each trace and outcome must be the one a fresh engine gives. *)
let test_pipeline_copies_match_fresh_engines () =
  List.iter
    (fun app ->
      let analysis = Pipeline.analyze_app app in
      let fresh = List.map (Pipeline.run_case ~analysis app) app.Pipeline.test_cases in
      let dataset = Pipeline.collect app in
      let name = app.Pipeline.name in
      Alcotest.(check bool) (name ^ ": traces") true
        (List.map snd dataset.Pipeline.traces = List.map fst fresh);
      Alcotest.(check bool) (name ^ ": outcomes") true
        (Pipeline.collect_outcomes ~analysis app = List.map snd fresh))
    (database_apps ())

let test_pipeline_presets () =
  Alcotest.(check bool) "cmarkov drops labels" false
    Pipeline.cmarkov_params.Profile.use_labels;
  Alcotest.(check bool) "cmarkov drops caller tracking" false
    Pipeline.cmarkov_params.Profile.track_callers;
  Alcotest.(check bool) "adprom uses the forecast" true
    (Pipeline.adprom_params.Profile.init = Profile.Init_pctm)

let test_report_table () =
  let s = Adprom.Report.table ~title:"T" ~header:[ "a"; "b" ] [ [ "1"; "2" ]; [ "333" ] ] in
  Alcotest.(check bool) "title present" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check string) "percent cell" "12.30%" (Adprom.Report.percent_cell 0.123);
  Alcotest.(check string) "-inf cell" "-inf" (Adprom.Report.float_cell neg_infinity)

let () =
  Alcotest.run "adprom"
    [
      ( "window",
        [
          Alcotest.test_case "sliding" `Quick test_window_sliding;
          Alcotest.test_case "short traces" `Quick test_window_short_trace;
          Alcotest.test_case "dedup" `Quick test_window_dedup;
          Alcotest.test_case "labels" `Quick test_window_labels;
          Alcotest.test_case "encode" `Quick test_window_encode;
        ] );
      ( "threshold",
        [
          Alcotest.test_case "strategies" `Quick test_threshold_strategies;
          Alcotest.test_case "adaptive" `Quick test_threshold_adaptive;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "metrics" `Quick test_evaluation_metrics;
          Alcotest.test_case "observe and merge" `Quick test_evaluation_observe_merge;
          Alcotest.test_case "curve monotone" `Quick test_evaluation_curve_monotone;
          Alcotest.test_case "kfold" `Quick test_kfold;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "ctv shape" `Quick test_reduction_ctv_shape;
          Alcotest.test_case "sparse ctvs = dense reference" `Quick
            test_reduction_ctv_sparse_matches_dense;
          Alcotest.test_case "identity when small" `Quick test_reduction_identity_when_small;
          Alcotest.test_case "clusters when large" `Quick test_reduction_clusters_when_large;
          Alcotest.test_case "gen-wide clustering = covariance-side oracle" `Quick
            test_reduction_gram_matches_oracle;
          Alcotest.test_case "initialized HMM is valid" `Quick test_reduction_init_hmm_valid;
        ] );
      ( "profile+detector",
        [
          Alcotest.test_case "training" `Quick test_profile_training;
          Alcotest.test_case "retraining is reproducible" `Quick test_profile_retrain_identical;
          Alcotest.test_case "normals above threshold" `Quick test_profile_scores_normals_high;
          Alcotest.test_case "bench-config profiles pinned by digest" `Quick
            test_profile_bench_digests;
          Alcotest.test_case "profile io rejects NaN entries" `Quick test_profile_io_rejects_nan;
          Alcotest.test_case "fork after training" `Quick test_fork_after_training;
          Alcotest.test_case "threshold from the final model's scores" `Quick
            test_profile_threshold_from_final_model;
          Alcotest.test_case "flags" `Quick test_detector_flags;
          Alcotest.test_case "explain ranks surprisals" `Quick test_detector_explain;
          Alcotest.test_case "worst ordering" `Quick test_detector_worst_ordering;
          Alcotest.test_case "pipeline presets" `Quick test_pipeline_presets;
          Alcotest.test_case "collect on engine copies = fresh engines" `Quick
            test_pipeline_copies_match_fresh_engines;
          Alcotest.test_case "report formatting" `Quick test_report_table;
        ] );
    ]
