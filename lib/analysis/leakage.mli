(** Static leakage summaries: column-level information flow from query
    results to output sinks.

    An interprocedural dataflow analysis over the {!Flowdom} provenance
    lattice. Atom sets are seeded at the query-execution sites
    {!Qstatic} inferred — columns from the parsed select lists, with
    [*] expanded against the declared {!Applang.Libspec.Schema};
    cardinality classes from LIMIT clauses, equality predicates on
    declared key columns, and IN-list arities — then propagated through
    binds, row indexing, string builtins, prepared-statement handles
    and user-function summaries (an instance of
    {!Dataflow.Summaries}, as {!Taint} is: per-parameter flow bits
    composed exactly by isolated marker runs, caller argument flows
    joined into callee entry assumptions).

    The result is the per-program {e leakage summary}: every reachable
    sink call whose arguments can carry query-derived data, with the
    atoms and their def-use witness paths.

    Soundness contract: when [complete] (no open query site), every
    concrete sensitive flow the program can exhibit at run time is
    covered by some sink's atom set — exactly, by table/column, or
    conservatively by a ["*"]-column or [Opaque] atom. Run it on the
    pruned CFGs so block ids line up with the runtime collector's. *)

type sink = {
  func : string;
  block : int;  (** CFG node id of the sink call — the id runtime events carry *)
  callee : string;
  atoms : Flowdom.atom list;  (** sorted; never empty *)
}

type result = {
  sinks : sink list;  (** sorted by function, then block *)
  complete : bool;  (** mirrors {!Qstatic.result.complete} *)
}

val analyze :
  ?schema:Applang.Libspec.Schema.t ->
  static:Qstatic.result ->
  (string * Cfg.t) list ->
  result
(** [static] must come from {!Qstatic.infer} over the {e same} CFG
    list ({!Vet.leakage} passes a stage's). Without a schema, [SELECT *]
    atoms keep the whole-row ["*"] column and no cardinality bound from
    key predicates applies. *)

val capabilities : result -> (int * string) list
(** Each sink's block with its rendered capability,
    ["callee <- atom, atom"]: the note a runtime monitor attaches to an
    incident once the session has fired that block. *)
