(** Call Transition Matrix (CTM).

    Sparse matrix over {!Symbol.t} pairs recording the transition
    probability of each call pair within a function (Sec. IV-C2), and,
    after aggregation, within the whole program (pCTM). *)

type t

val create : unit -> t
val copy : t -> t

val add : t -> Symbol.t -> Symbol.t -> float -> unit
(** Accumulate probability mass onto a pair. *)

val set : t -> Symbol.t -> Symbol.t -> float -> unit
val get : t -> Symbol.t -> Symbol.t -> float
(** 0.0 for absent pairs. *)

val remove_symbol : t -> Symbol.t -> unit
(** Drop every pair mentioning the symbol. *)

val symbols : t -> Symbol.t list
(** All symbols mentioned in any pair, sorted; includes Entry/Exit. *)

val calls : t -> Symbol.t list
(** [symbols] without Entry/Exit: the observable calls, sorted. *)

val row : t -> Symbol.t -> (Symbol.t * float) list
(** Outgoing transitions of a symbol (non-zero only). *)

val column : t -> Symbol.t -> (Symbol.t * float) list

val column_sum : t -> Symbol.t -> float

val iter : (Symbol.t -> Symbol.t -> float -> unit) -> t -> unit

val eliminate_symbol : t -> Symbol.t -> unit
(** Remove a symbol by redistributing its flow: every predecessor [a]
    and successor [b] gain [in(a) * out(b) / total] mass where [total]
    is the symbol's inflow. Used to approximate recursive calls (one
    unrolling) before aggregation. No-op when the symbol is absent. *)

val conserved : t -> bool
(** The three pCTM properties of Sec. IV-C3: Entry row sums to 1, Exit
    column sums to 1, and each call's inflow equals its outflow. *)

val map_symbols : (Symbol.t -> Symbol.t) -> t -> t
(** Rebuild the matrix under a symbol renaming; colliding pairs merge
    by summation (used to strip labels for the CMarkov baseline). *)

val pp : Format.formatter -> t -> unit
