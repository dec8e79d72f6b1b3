(** Generic monotone dataflow framework over {!Cfg} graphs.

    A forward worklist fixpoint parameterized by a join-semilattice and
    a per-node transfer function. Every intraprocedural analysis of the
    static phase (taint environments, definite assignment, …) is an
    instance; writing a new one is a lattice + a transfer, never another
    hand-rolled worklist.

    Termination: the lattice must have finite height along the chains
    the transfer produces and the transfer must be monotone — both hold
    trivially for the finite powerset lattices used here.

    Must-analyses fit the same engine upside down: order the lattice by
    [⊇], make [bottom] the finite universe (the identity of
    intersection) and [join] the intersection — see {!Vet}'s definite-
    assignment pass. *)

module type LATTICE = sig
  type t

  val bottom : t
  (** Least element, and the value of unreachable nodes. Must be the
      identity of {!join}. *)

  val join : t -> t -> t
  val equal : t -> t -> bool
end

module Make (L : LATTICE) : sig
  type solution

  val solve :
    ?with_back_edges:bool ->
    Cfg.t ->
    entry:L.t ->
    transfer:(Cfg.node -> L.t -> L.t) ->
    solution
  (** Propagate from the entry node to a fixpoint. [with_back_edges]
      (default [true]) also propagates along the recorded loop back
      edges, so loop-carried facts converge; pass [false] to analyze
      the acyclic single-visit view the probability forecast uses. *)

  val input : solution -> int -> L.t
  (** Join over the outputs of the node's processed predecessors —
      the value {e entering} the node. [L.bottom] for nodes the entry
      cannot reach. *)

  val output : solution -> int -> L.t
  (** [transfer node (input node)], memoized. [L.bottom] when
      unreachable. *)

  val reachable : solution -> int -> bool
  (** Was the node visited by the fixpoint (i.e. reachable from the
      entry through the propagated edge relation)? *)
end

(** {1 Interprocedural summaries}

    The whole-program half of {!Taint} and {!Leakage}: a value domain
    and an intraprocedural solve, never another hand-rolled [changed]
    loop. Each round walks the functions in list order; for each it
    recomputes the summary, then solves the function under its entry
    assumptions and joins every user call's argument values into the
    callee's entry. Rounds repeat until nothing changes under [equal].
    A summary that changed only where [equal] does not look (a witness
    path) keeps its old value, so the visiting order is part of the
    result. *)

type 'v summary = {
  const : 'v;  (** returned with no parameter bound *)
  params : bool array;
      (** [params.(i)]: {!VALUE.marker} bound to parameter [i] reaches
          the return value; one bit per parameter *)
}

val flowing_args : 'v summary -> 'a list -> 'a list
(** The arguments of a call whose parameter can reach the return
    value. *)

module type VALUE = sig
  include LATTICE

  val marker : t
  (** What one parameter is seeded with to compute its [params] bit. *)

  val reached : t -> bool
  (** Does a returned value carry {!marker}? *)
end

module type PROCEDURE = sig
  type value
  type solution

  val solve :
    summary_of:(string -> value summary option) ->
    Cfg.t ->
    (string * value) list ->
    solution
  (** Solve one function with the given parameters bound to the given
      values, in parameter order; the others stay unbound. *)

  val eval_at :
    summary_of:(string -> value summary option) -> solution -> int -> Applang.Ast.expr -> value
  (** The value of an expression on entry to the node with that id: a
      call argument, or a returned expression. *)
end

module Summaries (V : VALUE) (P : PROCEDURE with type value = V.t) : sig
  type t

  val solve : per_param:bool -> (string * Cfg.t) list -> t
  (** Run the fixpoint. [per_param:false] seeds every parameter at once,
      so a function's [params] bits are all equal: the coarse
      whole-function answer. *)

  val summary_of : t -> string -> V.t summary option

  val solve_entry : t -> Cfg.t -> P.solution
  (** Solve a function under its converged entry assumptions: what an
      analysis's final pass reads. *)

  val summaries : t -> (string * V.t summary) list
  (** Sorted by function name. *)

  val entries : t -> (string * V.t array) list
  (** Each function's parameter values joined over every call site;
      [bottom] for functions never called. Sorted by function name. *)
end
