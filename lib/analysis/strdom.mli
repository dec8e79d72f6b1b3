(** Abstract string domain for static SQL-template inference.

    A value over-approximates the set of strings an applang expression
    can evaluate to, as a finite disjunction of {e templates}: literal
    fragments interleaved with typed parameter {e holes} (unknown
    interpolated values, carrying an injection-taint bit and a
    provenance chain) and {e repetition classes} ([Rep]) introduced by
    loop widening. Joins widen growth chains — a template extending
    another by a suffix collapses to [prefix ++ Rep suffix] — and every
    cap (template count, piece count, render fan-out) degrades towards
    [Any], never towards dropping a behavior.

    The exactness contract: holes stand for {e literal-shaped} runtime
    values (rendering as an SQL literal, not as structure). Rendering a
    digit hole as [0] and an in-quote string hole as the empty string
    preserves the erased query signature for every such value; a string
    hole in structural position makes the rendering inexact, as does a
    nested repetition or any cap overflow. *)

type hole = {
  tainted : bool;  (** may carry attacker-controlled input *)
  digits : bool;  (** renders as digits only (int-valued) *)
  origin : string list;  (** provenance chain, latest binding first *)
}

type piece =
  | Lit of string
  | Hole of hole
  | Rep of piece list  (** the sequence repeated zero or more times *)

type kind = K_int | K_str | K_other

type tmpl = { kind : kind; pieces : piece list }

type value =
  | Templates of tmpl list  (** finite disjunction; [[]] is bottom *)
  | Any of bool  (** top; payload: may be tainted *)

val bottom : value
val const_str : string -> value
val const_int : int -> value

val const_other : string -> value
(** A known non-int, non-string display ([true], [NULL], ...). *)

val bool_val : value
(** The two boolean displays, [true] and [false]. *)

val hole : ?digits:bool -> tainted:bool -> origin:string -> unit -> value
(** A single unknown value; [digits] marks it int-valued ([K_int]). *)

val str_hole : tainted:bool -> origin:string -> unit -> value
(** An unknown string-typed value ([K_str]). *)

val equal : value -> value -> bool
(** Structural, ignoring hole provenance (required for the dataflow
    fixpoint to converge while origins accumulate). *)

val join : value -> value -> value
val concat : value -> value -> value
(** String concatenation with [to_display] coercion on both sides. *)

val as_string : value -> value
(** Retype every template as [K_str], keeping the pieces
    ([to_string] / [strcpy] semantics). *)

val const_int_opt : value -> int option
(** The single constant-int template, if that is all the value holds. *)

val definitely_int : value -> bool
(** Every disjunct is int-kinded (so [+] is arithmetic, not concat). *)

val tainted : value -> bool
val witness : value -> string list option
(** Provenance of some tainted hole, source first. *)

val bind_origin : string -> value -> value
(** Record a binding to the named variable in hole provenance. *)

type rendering = {
  strings : string list;  (** candidate concrete texts, deduplicated *)
  exact : bool;  (** renders cover every literal-shaped instantiation *)
  constant : bool;  (** the template was a single literal string *)
}

val render : value -> rendering list
(** One rendering per template ([Any] yields a single inexact, empty
    rendering). *)
