(** Graphviz exports of the analysis artifacts — developer tooling for
    inspecting CFGs and call-transition matrices. *)

val cfg_to_dot : Cfg.t -> string
(** One digraph per function: call nodes as boxes (labeled sites
    highlighted), conditions as diamonds, back edges dashed. *)

val ctm_to_dot : Ctm.t -> string
(** The CTM as a weighted digraph of its positive entries. *)

val callgraph_to_dot : Callgraph.t -> string
