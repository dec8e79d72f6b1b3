(** Accuracy metrics (Sec. V-D): confusion matrix, rates, and the
    FP-vs-FN curves of Fig. 10, plus k-fold utilities. *)

type confusion = { tp : int; tn : int; fp : int; fn : int }

val empty : confusion
val merge : confusion -> confusion -> confusion

val observe : confusion -> anomalous:bool -> flagged:bool -> confusion
(** Update with one window: [anomalous] is the ground truth, [flagged]
    the detector's verdict. *)

val fp_rate : confusion -> float
(** [FP / (FP + TN)]; 0 when undefined. *)

val fn_rate : confusion -> float
val precision : confusion -> float
val recall : confusion -> float
val accuracy : confusion -> float
val total : confusion -> int

val curve :
  normal_scores:float array ->
  anomalous_scores:float array ->
  thresholds:float array ->
  (float * float * float) list
(** For each threshold [t]: [(t, fp_rate, fn_rate)] where a score below
    [t] is flagged. The Fig. 10 series. *)

val sweep_thresholds : normal_scores:float array -> anomalous_scores:float array -> int -> float array
(** Evenly spaced thresholds covering the finite score range of both
    populations (with a small outward margin), for {!curve}. *)

val kfold : k:int -> 'a list -> ('a list * 'a list) list
(** [kfold ~k xs]: k (train, validation) splits by round-robin
    assignment. @raise Invalid_argument if [k < 2]. *)
