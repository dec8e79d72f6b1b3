(** Probability forecast over a function's CFG (Sec. IV-C2).

    Implements equations (1)-(3) of the paper:
    - the conditional probability of each edge is uniform over the
      parent's outgoing edges;
    - reachability probabilities follow the topological order;
    - the transition probability of a call pair sums, over all
      {e call-free} paths between the two call nodes, the source's
      reachability times the product of edge conditional probabilities
      along the path (computed by dynamic programming, not path
      enumeration). *)

val reachability : Cfg.t -> (int * float) list
(** Reachability probability of every node, ascending id order. The
    entry node has probability 1. *)

val ctms : (string * Cfg.t) list -> (string * Ctm.t) list
