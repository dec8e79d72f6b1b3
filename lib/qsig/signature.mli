(** Structural query signatures.

    A signature is the literal-erased canonical form of a statement
    (see {!Sqldb.Sql_pp.signature}): keyword case and whitespace are
    normalized by the parser, constants erase to [?], IN-lists and
    multi-tuple INSERTs collapse to arity classes. Two queries share a
    signature exactly when they are the same access shape — the unit
    DetAnom-style profiles are keyed on. *)

type t = private string
(** Canonical signature text. Total order and equality are string ones. *)

val of_statement : Sqldb.Sql_ast.statement -> t

val to_string : t -> string

(** {1 Slots}

    One slot per literal position of the erased form, in source order.
    The slot vector's length depends only on the signature: IN-lists
    are a single slot aggregating their members, INSERT slots aggregate
    per column position across tuples, LIMIT is a trailing slot. *)

type slot_value =
  | V_int of int
  | V_str of string
  | V_null
  | V_free  (** an unbound [?] placeholder: the slot can hold anything *)

val slots : Sqldb.Sql_ast.statement -> slot_value list array

(** {1 Predicate widening}

    Static shape checks on the WHERE clause, independent of any learned
    profile: a WHERE that evaluates true under three-valued logic with
    all non-constant atoms unknown is a tautology (Attack 5's
    [' OR '1'='1']); a constant literal-to-literal comparison anywhere
    is reported even when it does not widen to true. *)

type warning = Tautology | Constant_comparison

val widening_warnings : Sqldb.Sql_ast.statement -> warning list
