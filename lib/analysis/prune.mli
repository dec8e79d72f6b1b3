(** Branch-feasibility prepass: constant + copy propagation over the
    {!Dataflow} engine, pruning statically dead CFG edges.

    A branch whose condition evaluates to a constant under the
    propagated environment can take only one arm; the other edge is
    removed and everything that becomes unreachable from the entry is
    dropped. For a loop header whose condition is constantly {e true}
    the fictional latch fall-through edges (the DAG's "body runs once"
    exits) are removed too — at runtime such a loop is only left
    through a [break]. The pass iterates to a fixpoint: removing a dead
    arm can sharpen the constants seen at a later join and expose
    further dead branches.

    Soundness: the propagation runs {e with} the recorded loop back
    edges, so loop-carried reassignments join their targets to unknown
    and bounded loops keep both arms. Only edges no execution can take
    are removed; the pruned graph therefore still over-approximates the
    program's behaviour, which is what both the probability forecast
    ({!Forecast.ctms} on pruned graphs sharpens transition mass onto
    feasible edges) and the call-sequence automaton ({!Seqauto}) need.

    The pruned graph is a fresh {!Cfg.t} sharing the original (mutable)
    node records, so DB-output labels applied by {!Taint} remain
    visible through either view. *)

type report = {
  func : string;
  removed_edges : (int * int) list;
      (** removed edge occurrences (parallel edges count once each),
          including latch fall-throughs of constantly-true loops *)
  dead_nodes : int list;  (** nodes no longer reachable from the entry *)
}

val program : (string * Cfg.t) list -> (string * Cfg.t) list * report list
(** Prune each function's graph, preserving order. A function with
    nothing removable keeps its input graph itself and an empty
    report. *)
