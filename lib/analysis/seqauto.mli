(** The interprocedural call-sequence automaton: a finite automaton
    whose language over-approximates the library-call sequences the
    program can emit, compiled to a dense {!Dfa} for the scoring
    engine's static window gate.

    Construction (per function, on the {!Prune}d CFGs): CFG nodes
    become NFA states; an edge into a library-call node carries the
    call's observable symbol (both the labeled and unlabeled variants
    for DB-output sites, since the dynamic taint decides the label at
    runtime), every other edge — including the recorded loop back
    edges, so loops may repeat — is ε. User calls are spliced through
    {!Callgraph}: the call site ε-enters a callee instance and the
    callee's exit ε-returns to the site's successors. Call sites into
    distinct strongly-connected components get their own copies
    (call-site inlining); within an SCC all members share one instance,
    merging call and return points — the conservative collapse that
    keeps recursion finite. When inlining would exceed [state_budget],
    construction falls back to one shared instance per function (flat,
    linear-size, still sound).

    Windows are substrings of traces, so the gate language is the
    {e factor} language: {!accepts} asks "can this sequence appear
    somewhere along an execution?", and a [false] answer is a proof the
    program cannot produce the window. *)

type stats = {
  functions : int;  (** functions laid out (reachable from the entry) *)
  nfa_states : int;
  nfa_transitions : int;
  dfa_states : int;  (** after Hopcroft minimization *)
  dfa_width : int;  (** alphabet size *)
  flat : bool;  (** budget fallback taken *)
}

type t = {
  nfa : Nfa.t;
  dfa : Dfa.t;
  entry : string;
  use_labels : bool;
  stats : stats;
}

val build :
  ?entry:string ->
  use_labels:bool ->
  ?state_budget:int ->
  (string * Cfg.t) list ->
  Callgraph.t ->
  t
(** Build from (pruned) CFGs. [entry] defaults to ["main"]; when the
    entry is absent every function is a root (conservative).
    [use_labels:false] strips DB-output labels from the transition
    symbols before determinizing — the view of a profile trained
    without labels. [state_budget] (default [20_000]) bounds the
    inlined NFA before the flat fallback. *)

val accepts : t -> Symbol.t list -> bool
(** Factor membership of an observable symbol sequence. Symbols are
    normalized ({!Symbol.observable}, labels stripped under
    [use_labels = false]) so runtime-collector events can be queried
    directly. *)

val stats_to_string : stats -> string
