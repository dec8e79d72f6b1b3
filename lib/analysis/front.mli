(** The static front end (Sec. IV-A–B): the one view of a program that
    training ({!Analyzer.analyze}) and every static check ({!Vet.stage})
    start from. Needs no entry function. *)

type t = {
  cfgs : (string * Cfg.t) list;  (** one per function, DB-output labels applied *)
  sites : Cfg.Sites.sites;  (** call expression -> block id *)
  taint : Taint.result;  (** the DB-output labeling *)
  pruned : (string * Cfg.t) list;
      (** {!Prune}d graphs (dead branch arms removed); share the
          original node records, so the labels show through *)
  callgraph : Callgraph.t;  (** over [cfgs] *)
}

val build : Applang.Ast.program -> t
(** CFGs, call graph, taint labeling, branch-feasibility pruning. *)
