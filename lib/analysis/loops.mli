(** Natural loops of a {!Cfg}.

    The CFG construction stores every loop back edge on the side
    ([Cfg.back_edges]) to keep the static graph acyclic; this module
    puts them back and recovers the loop structure: for each back edge
    [(latch, header)] whose header dominates its latch, the natural
    loop is the header plus every node that reaches the latch without
    passing through the header. Back edges sharing a header merge into
    one loop (as [while] bodies with [continue] do).

    Used by {!Vet} to flag loops whose every exit edge is statically
    dead ([while (true)] with no reachable [break]). *)

type loop = {
  header : int;  (** the loop-condition node the back edges return to *)
  latches : int list;  (** sources of the back edges, ascending *)
  body : int list;  (** all loop nodes including header and latches, ascending *)
  exits : (int * int) list;
      (** edges leaving the loop: (inside node, outside successor) *)
}

val analyze : dom:Dominator.t -> Cfg.t -> loop list
(** Loops in ascending header order, given the graph's dominator tree
    [dom] ({!Dominator.compute} of the same graph). Irreducible back
    edges (header not dominating the latch — impossible for CFGs built
    by {!Cfg_build}) are skipped. *)
