(** Values stored in the mini relational engine. *)

type t =
  | Int of int
  | Str of string
  | Null

val to_string : t -> string
(** Display form; [Null] prints as ["NULL"]. *)

val compare_values : t -> t -> int option
(** Three-way comparison following SQL semantics: [None] when either side
    is [Null] (comparisons with NULL are unknown), otherwise [Some c].
    Ints compare numerically, strings lexicographically; an int and a
    string compare via the string form of the int, which mirrors the
    stringly-typed behaviour of the C client code in the paper. *)

val equal : t -> t -> bool
(** Structural equality ([Null] equals [Null]); used by tests, not by
    SQL predicate evaluation. *)
