(** Dominator tree of a {!Cfg}.

    Computed on the {e full} flow graph — the acyclic successor relation
    with the recorded loop back edges restored — using the
    Cooper–Harvey–Kennedy iterative algorithm over a reverse postorder,
    which converges in a couple of passes on reducible graphs (and all
    AppLang CFGs are reducible by construction).

    Node [a] dominates node [b] when every path from the function entry
    to [b] passes through [a]. The natural-loop analysis ({!Loops}) is
    the main client: a recorded back edge [(l, h)] is a genuine loop
    back edge exactly when [h] dominates [l]. *)

type t

val compute : Cfg.t -> t

val dominates : t -> int -> int -> bool
(** [dominates t a b]: does [a] dominate [b]? Reflexive on reachable
    nodes; [false] whenever [b] is unreachable. *)

val reachable : t -> int -> bool
(** Reachable from the entry through the full flow graph. *)
