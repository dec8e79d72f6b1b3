(** Detection-threshold selection (Sec. IV-D, "Threshold Selection").

    Scores are per-symbol average log-probabilities of windows under the
    trained HMM; a window is flagged when its score falls {e below} the
    threshold. *)

type strategy =
  | Fixed of float
  | Min_margin of float
      (** minimum validation score minus a safety margin — the
          cross-validation method of the paper *)
  | Quantile of float
      (** the q-quantile of validation scores, e.g. [Quantile 0.001]
          tolerates one normal window in a thousand below threshold *)

val select : strategy -> float array -> float
(** [select strategy validation_scores]; scores of [neg_infinity]
    (impossible windows) are ignored. Falls back to [-1e9] when no
    finite score exists.
    @raise Invalid_argument on a [Quantile] outside [0, 1]. *)

val adaptive : current:float -> recent_fp_rate:float -> target_fp_rate:float -> float
(** One step of the adaptive-threshold scheme sketched in the paper: if
    the recent false-positive rate exceeds the target, lower the
    threshold by 10%% of its magnitude; if it is well below target,
    raise it slightly. *)
