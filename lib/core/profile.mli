(** Application profiles — the Profile Constructor (Sec. IV-B3, IV-C).

    A profile bundles everything the Detection Engine needs: the
    observation alphabet, the trained HMM, the detection threshold, and
    the (caller, call) pairs seen during training (for the
    out-of-context flag).

    Training follows the paper's protocol: the HMM is initialized from
    the aggregated pCTM (or randomly, for the Rand-HMM baseline), 1/5 of
    the normal windows are held out as the convergence sub-dataset
    (CSDS), Baum-Welch rounds run until the CSDS score stops improving,
    and the threshold is then selected from normal-window scores. *)

type init_kind =
  | Init_pctm  (** probability-forecast initialization (AD-PROM) *)
  | Init_random  (** random initialization (Rand-HMM baseline) *)

type params = {
  window : int;  (** n-length of call sequences (paper: 15) *)
  max_states : int;
      (** clustering threshold: beyond this many call sites, reduce
          (paper: ~900; scaled down here, see DESIGN.md) *)
  cluster_fraction : float;  (** k-means K as a fraction of sites (paper: 0.3) *)
  pca_variance : float;  (** variance kept by PCA *)
  max_rounds : int;  (** Baum-Welch round budget *)
  patience : int;  (** rounds without CSDS improvement before stopping *)
  seed : int;
  threshold_strategy : Threshold.strategy;
  init : init_kind;
  use_labels : bool;  (** false = CMarkov view (no DB-output labels) *)
  track_callers : bool;
      (** record (caller, call) pairs for the out-of-context flag —
          AD-PROM machinery, off for the baselines *)
}

val default_params : params
(** window 15, max_states 250, fraction 0.3, variance 0.95, 30 rounds,
    patience 2, [Min_margin 0.5], pCTM init, labels on. *)

type t = {
  params : params;
  alphabet : Analysis.Symbol.t array;
  obs_index : int Analysis.Symbol.Table.t;  (** observable -> alphabet index *)
  model : Hmm.t;
  threshold : float;
  clustering : Reduction.clustering;
  known_pairs : (string * Analysis.Symbol.t, unit) Hashtbl.t;
  csds_history : float list;  (** CSDS mean score after each round *)
  rounds_run : int;
}

val train :
  ?params:params -> analysis:Analysis.Analyzer.t -> Window.t list -> t
(** Build a profile from the static analysis and normal training
    windows. @raise Invalid_argument when no usable windows exist. *)

val extend : t -> Window.t list -> t
(** Continue training with additional normal windows — the paper's
    Sec. VII mitigation ("an intermediate stage between training and
    detection phases to collect more data"): the HMM is refined with
    Baum-Welch on the new data, the threshold re-selected to also cover
    the new windows' scores, and their (caller, call) pairs become
    known. The observation alphabet is fixed at initial training;
    windows with unseen symbols are ignored (until a full retrain they
    would be attacks, not new legitimate behaviour).
    @raise Invalid_argument if [windows] is empty. *)

val prepare : t -> Window.t -> Window.t
(** Apply the profile's label view (strips labels under
    [use_labels = false]). *)

val score : t -> Window.t -> float
(** Per-symbol log-probability of the window under the profile's model;
    [neg_infinity] when the window contains symbols outside the
    alphabet. Applies {!prepare}. *)

val known_pair : t -> string -> Analysis.Symbol.t -> bool
