(** Small statistics helpers shared by the evaluation harness. *)

val mean : float array -> float
(** @raise Invalid_argument on an empty array. *)

val variance : float array -> float
(** Population variance. @raise Invalid_argument on an empty array. *)

val quantile : float array -> float -> float
(** [quantile xs q] with [q] in [\[0, 1\]]; linear interpolation between
    order statistics. @raise Invalid_argument on an empty array. *)

val min_max : float array -> float * float

val argmax : float array -> int
val argmin : float array -> int
