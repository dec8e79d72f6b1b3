(** Dense deterministic automaton for O(1) factor-membership checks —
    the compiled form the scoring engine's static gate executes.

    Built from an {!Nfa} by subset construction over the factor
    language (the initial subset is {e every} state, since a window can
    start anywhere along a path) followed by Hopcroft minimization.
    Every live state is accepting; the single dead state is the
    constant [-1], so "the window is statically impossible" is exactly
    "the walk hit [-1]" — one array read per symbol. *)

type t

val of_nfa : Nfa.t -> t
(** Determinize + minimize. The subset construction stops at 100,000
    subsets.
    @raise Invalid_argument when the bound is exceeded. *)

val nstates : t -> int
(** Live (accepting) states after minimization, excluding the implicit
    dead state. *)

val width : t -> int
(** Alphabet size. *)

val start : t -> int

val sym_code : t -> Symbol.t -> int option
(** Dense code of a symbol; [None] for symbols outside the alphabet
    (no path emits them, so any window containing one is rejected). *)

val step : t -> int -> int -> int
(** [step t state code]: one transition; [-1] is sticky (dead). *)

val accepts_factor : t -> Symbol.t list -> bool
(** Walk from {!start}; [false] iff the walk dies (including on any
    symbol outside the alphabet). The empty sequence is accepted. *)

val to_dot : t -> string
(** Graphviz rendering (dead state omitted). *)
