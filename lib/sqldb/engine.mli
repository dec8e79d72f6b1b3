(** In-memory relational engine.

    Stands in for the PostgreSQL/MySQL servers of the paper's testbed:
    the client applications' behaviour (how many rows come back, hence
    how many output calls they issue) depends on real query evaluation,
    which is what the data-leakage attacks manipulate. *)

type t

type result = { columns : string array; rows : Value.t array array }

type outcome =
  | Rows of result  (** result set of a SELECT *)
  | Affected of int  (** row count of INSERT/UPDATE/DELETE, 0 for CREATE *)

exception Sql_error of string
(** Raised on semantic errors: unknown table/column, arity mismatch,
    missing prepared-statement parameter. *)

val create : unit -> t

val copy : t -> t
(** A deep copy: no statement run on either engine changes the other
    (UPDATE writes rows in place), and the copy lists its tables in the
    original's order. *)

val execute : ?params:Value.t array -> t -> Sql_ast.statement -> outcome
(** Run a parsed statement; [params] feeds [?] placeholders.
    @raise Sql_error on semantic errors. *)

val exec : t -> string -> outcome
(** Parse then execute, with no parameters (the unsafe, injectable path
    used by the vulnerable clients).
    @raise Sql_error on a lexical, syntax or semantic error. *)

val like_match : pattern:string -> string -> bool
(** SQL LIKE semantics: [%] matches any run, [_] any single character.
    Exposed for direct testing. *)
