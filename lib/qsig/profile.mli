(** Learned query profile: signature -> slot constraints + cardinality
    band. The training input is either bare SQL texts (no cardinality,
    bands stay empty) or an executed-query log of [(sql, rows)] pairs
    as produced by {!Runtime.Interp} outcomes. *)

type entry = {
  mutable slots : Constraints.t array;
  mutable band : Constraints.band;
  mutable count : int;  (** training observations of this signature *)
}

type t

val create : unit -> t

val learn : t -> string -> unit
(** Parse and fold one query into the profile, with no cardinality;
    unparseable text counts into the malformed bucket. *)

val learn_shape : t -> string -> unit
(** Register the query's signature without observing slot values — for
    prepare-time texts whose [?] placeholders would otherwise widen the
    slots shared with bound executions to Top. *)

val learn_log : t -> (string * int) list -> unit

val copy : t -> t
(** Independent deep copy; further learning on either side does not
    affect the other. *)

val find_by_text : t -> string -> entry option
val signatures : t -> string list
(** Signature texts, sorted. *)

val cardinality : t -> int
val malformed_count : t -> int
val fold : (string -> entry -> 'a -> 'a) -> t -> 'a -> 'a

val save : t -> string -> unit
val load : string -> (t, string) result
val to_json : t -> string
