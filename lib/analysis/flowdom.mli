(** Provenance lattice of the {!Leakage} analysis.

    An abstract value is a finite set of {e provenance atoms}: which
    [table.column] sources a program value may carry, each with a
    cardinality class — how many distinct rows' worth of that column
    can flow through ([?{1}], [?{few}] for 2..8, [?{many}]), matching
    the arity classes of the query-signature syntax. Each atom also
    carries a def-use witness path (source-first variable chain) that
    is reported but deliberately excluded from the lattice order, so
    fixpoints converge (the {!Strdom} origin idiom). *)

type card = C_one | C_few | C_many

val card_min : card -> card -> card

val card_of_arity : int -> card
(** The bucket of a concrete row/member count; agrees with
    {!Sqldb.Sql_pp.signature}'s IN-arity classes. *)

val card_to_string : card -> string
(** [?{1}], [?{few}], [?{many}]. *)

type src =
  | Col of { table : string; column : string }
      (** a result column; [column = "*"] is an entire row of a table
          whose column list is not declared *)
  | Opaque of string
      (** data of unknown provenance (an open or malformed query site,
          an undeclared handle) — what the [leak-unknown-provenance]
          hint reports *)

val src_to_string : src -> string

type atom = { src : src; card : card; origin : string list }

type t
(** A set of atoms keyed by source: joining keeps the max cardinality
    per source. *)

val empty : t
val is_empty : t -> bool
val singleton : ?origin:string list -> src -> card -> t
val union : t -> t -> t

val equal : t -> t -> bool
(** Ignores witness paths: only sources and cardinalities order the
    lattice. *)

val mem : src -> t -> bool

val bind_origin : string -> t -> t
(** Append one def-use step to every atom's witness, skipping immediate
    repetition and capping the path length. *)

val atoms : t -> atom list
(** Sorted by source then cardinality. *)

val atom_to_string : atom -> string
(** [customers.ssn ?{many}]. *)

val witness_to_string : atom -> string
(** The def-use path as [pq_exec(main#4) -> row -> out]. *)
