module Symbol = Analysis.Symbol
module Ctm = Analysis.Ctm
module Otrace = Adprom_obs.Trace

type init_kind =
  | Init_pctm
  | Init_random

type params = {
  window : int;
  max_states : int;
  cluster_fraction : float;
  pca_variance : float;
  max_rounds : int;
  patience : int;
  seed : int;
  threshold_strategy : Threshold.strategy;
  init : init_kind;
  use_labels : bool;
  track_callers : bool;
}

let default_params =
  {
    window = 15;
    max_states = 250;
    cluster_fraction = 0.3;
    pca_variance = 0.95;
    max_rounds = 30;
    patience = 2;
    seed = 42;
    threshold_strategy = Threshold.Min_margin 0.5;
    init = Init_pctm;
    use_labels = true;
    track_callers = true;
  }

type t = {
  params : params;
  alphabet : Symbol.t array;
  obs_index : int Symbol.Table.t;
  model : Hmm.t;
  threshold : float;
  clustering : Reduction.clustering;
  known_pairs : (string * Symbol.t, unit) Hashtbl.t;
  csds_history : float list;
  rounds_run : int;
}

let observable_alphabet pctm windows =
  let set = ref Symbol.Set.empty in
  List.iter (fun c -> set := Symbol.Set.add (Symbol.observable c) !set) (Ctm.calls pctm);
  List.iter
    (fun (w : Window.t) -> Array.iter (fun s -> set := Symbol.Set.add s !set) w.Window.obs)
    windows;
  Array.of_list (Symbol.Set.elements !set)

let encode_or_fail index (w : Window.t) =
  match Window.encode ~index w with
  | Some codes -> codes
  | None -> invalid_arg "Profile.train: training window outside alphabet"

(* Per-symbol scores of encoded windows, in one batch call (bit-for-bit
   [Hmm.per_symbol_score]). *)
let scores model weighted = Hmm.per_symbol_scores model (Array.of_list (List.map fst weighted))

(* Weighted mean per-symbol score over deduplicated windows, with the
   per-window scores it averages. *)
let mean_score model weighted =
  let window_scores = scores model weighted in
  let num = ref 0.0 and den = ref 0.0 in
  List.iteri
    (fun k (_, w) ->
      let s = window_scores.(k) in
      if Float.is_finite s then begin
        num := !num +. (w *. s);
        den := !den +. w
      end
      else begin
        (* An impossible window counts as a strong penalty rather than
           being silently dropped. *)
        num := !num +. (w *. -50.0);
        den := !den +. w
      end)
    weighted;
  ((if !den = 0.0 then neg_infinity else !num /. !den), window_scores)

let train ?(params = default_params) ~analysis windows =
  Otrace.with_span "profile.train"
    ~attrs:(fun () -> [ ("windows", string_of_int (List.length windows)) ])
  @@ fun () ->
  let pctm =
    if params.use_labels then analysis.Analysis.Analyzer.pctm
    else Ctm.map_symbols Symbol.strip_label analysis.Analysis.Analyzer.pctm
  in
  let windows =
    if params.use_labels then windows else List.map Window.strip_labels windows
  in
  if windows = [] then invalid_arg "Profile.train: no training windows";
  (* The alphabet and the known pairs need only the distinct windows:
     the first window of each dedup key inserts each pair first in the
     same order as a walk over all windows would. *)
  let distinct = List.map fst (Window.dedup windows) in
  let alphabet = observable_alphabet pctm distinct in
  if Array.length alphabet = 0 then invalid_arg "Profile.train: empty alphabet";
  let obs_index = Symbol.Table.create 64 in
  Array.iteri (fun i o -> Symbol.Table.replace obs_index o i) alphabet;
  let index s = Symbol.Table.find_opt obs_index s in
  let rng = Mlkit.Rng.create params.seed in
  let clustering =
    Otrace.with_span "profile.cluster"
      ~attrs:(fun () -> [ ("sites", string_of_int (List.length (Ctm.calls pctm))) ])
      (fun () ->
        Reduction.cluster ~rng ~max_states:params.max_states
          ~cluster_fraction:params.cluster_fraction ~pca_variance:params.pca_variance
          pctm)
  in
  let model0 =
    Otrace.with_span "profile.init_hmm" (fun () ->
        match params.init with
        | Init_pctm -> Reduction.init_hmm pctm clustering ~alphabet
        | Init_random ->
            let n = max 2 clustering.Reduction.states in
            Hmm.random ~rng ~n ~m:(Array.length alphabet))
  in
  (* Hold 1/5 aside as the convergence sub-dataset. *)
  let shuffled =
    let arr = Array.of_list windows in
    Mlkit.Rng.shuffle rng arr;
    Array.to_list arr
  in
  let csds, training =
    List.partition
      (fun (i, _) -> i mod 5 = 0)
      (List.mapi (fun i w -> (i, w)) shuffled)
    |> fun (a, b) -> (List.map snd a, List.map snd b)
  in
  let training = if training = [] then csds else training in
  let encode_weighted ws =
    List.map (fun (w, weight) -> (encode_or_fail index w, weight)) (Window.dedup ws)
  in
  let train_weighted = encode_weighted training in
  let csds_weighted = if csds = [] then train_weighted else encode_weighted csds in
  (* Baum-Welch rounds with CSDS-based early stopping; keep the best
     model seen (the paper stops on no improvement), and its CSDS window
     scores for the threshold pass. *)
  let score0, csds_scores0 = mean_score model0 csds_weighted in
  let best_model = ref model0 in
  let best_score = ref score0 in
  let best_csds_scores = ref csds_scores0 in
  let history = ref [ score0 ] in
  let rounds = ref 0 in
  let no_improvement = ref 0 in
  let model = ref model0 in
  while !rounds < params.max_rounds && !no_improvement < params.patience do
    incr rounds;
    let csds_trace = ref nan in
    let next, csds_scores =
      (* one span per Baum-Welch round: the CSDS log-likelihood
         trajectory, readable straight off the trace dump *)
      Otrace.with_span "profile.bw_round"
        ~attrs:(fun () ->
          [
            ("round", string_of_int !rounds);
            ("csds_score", Printf.sprintf "%.6f" !csds_trace);
          ])
        (fun () ->
          let next, _ = Hmm.baum_welch_step !model train_weighted in
          let s, csds_scores = mean_score next csds_weighted in
          csds_trace := s;
          (next, csds_scores))
    in
    model := next;
    let s = !csds_trace in
    history := s :: !history;
    if s > !best_score +. 1e-6 then begin
      best_score := s;
      best_model := next;
      best_csds_scores := csds_scores;
      no_improvement := 0
    end
    else incr no_improvement
  done;
  let final_model = !best_model in
  let threshold =
    Otrace.with_span "profile.threshold" (fun () ->
        let all_scores = Array.append (scores final_model train_weighted) !best_csds_scores in
        Threshold.select params.threshold_strategy all_scores)
  in
  let known_pairs = Hashtbl.create 256 in
  List.iter
    (fun w -> List.iter (fun p -> Hashtbl.replace known_pairs p ()) (Window.pairs w))
    distinct;
  {
    params;
    alphabet;
    obs_index;
    model = final_model;
    threshold;
    clustering;
    known_pairs;
    csds_history = List.rev !history;
    rounds_run = !rounds;
  }

let prepare t w = if t.params.use_labels then w else Window.strip_labels w

let extend t windows =
  if windows = [] then invalid_arg "Profile.extend: no windows";
  Otrace.with_span "profile.extend"
    ~attrs:(fun () -> [ ("windows", string_of_int (List.length windows)) ])
  @@ fun () ->
  let windows =
    if t.params.use_labels then windows else List.map Window.strip_labels windows
  in
  let index s = Symbol.Table.find_opt t.obs_index s in
  (* Windows with unseen symbols are not legitimate-drift material.
     Usability depends only on a window's calls, which [Window.dedup]
     keys on, so dropping them after deduplication leaves the same
     weighted list as dropping them before. *)
  let weighted, usable =
    List.split
      (List.filter_map
         (fun (w, weight) ->
           Option.map (fun codes -> ((codes, weight), w)) (Window.encode ~index w))
         (Window.dedup windows))
  in
  if usable = [] then t
  else begin
    let rounds = max 1 (t.params.max_rounds / 4) in
    let model, _ = Hmm.fit ~max_iterations:rounds t.model weighted in
    let new_scores = scores model weighted in
    (* The threshold may only move down here: new legitimate behaviour
       widens the normal region, it never shrinks it. *)
    let candidate = Threshold.select t.params.threshold_strategy new_scores in
    let threshold = Float.min t.threshold candidate in
    (* one window per distinct key: the same pairs, first inserted in
       the same order as over every usable window *)
    let known_pairs = Hashtbl.copy t.known_pairs in
    List.iter
      (fun w -> List.iter (fun p -> Hashtbl.replace known_pairs p ()) (Window.pairs w))
      usable;
    { t with model; threshold; known_pairs }
  end

let score t w =
  let w = prepare t w in
  match Window.encode ~index:(Symbol.Table.find_opt t.obs_index) w with
  | Some codes -> Hmm.per_symbol_score t.model codes
  | None -> neg_infinity

let known_pair t caller sym = Hashtbl.mem t.known_pairs (caller, sym)
