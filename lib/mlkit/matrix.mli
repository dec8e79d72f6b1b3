(** Dense float matrices.

    A small, self-contained linear-algebra kernel sufficient for the
    PCA/K-means reduction pipeline and the HMM parameter matrices. *)

type t = { rows : int; cols : int; data : float array }
(** Row-major storage; element [(i, j)] lives at [data.(i * cols + j)]. *)

val create : int -> int -> t
(** Zero-filled [rows x cols] matrix. *)

val init : int -> int -> (int -> int -> float) -> t

val identity : int -> t

val of_arrays : float array array -> t
(** @raise Invalid_argument on ragged or empty input. *)

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val dims : t -> int * int
val row : t -> int -> float array
val col : t -> int -> float array
val mul : t -> t -> t

val equal : t -> t -> bool
