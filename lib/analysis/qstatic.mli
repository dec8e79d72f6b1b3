(** Static query-signature inference (the query-axis counterpart of the
    call-sequence facts in {!Vet}).

    Abstract interpretation of SQL string construction over the CFGs
    with the {!Strdom} template domain: every
    [pq_exec]/[mysql_query]/[pq_prepare]/[mysql_prepare] call site
    reachable from the entry gets a finite over-approximating set of
    canonical query signatures (through the {!Sqldb} parser and the
    runtime canonicalizer, so static and dynamic signatures are
    comparable texts), plus an incompleteness flag and — when
    attacker-controlled input reaches the SQL text itself rather than a
    bound parameter — an injection witness path.

    Soundness contract: when a site is not [open_], every query the
    program can execute through it with {e literal-shaped}
    interpolated values (values that render as an SQL literal, not as
    structure) has its signature in [signatures]. Attack inputs that
    smuggle structure produce signatures outside the set — which is
    precisely what the enforce gate rejects. *)

type site = {
  func : string;
  block : int;  (** CFG node id of the call *)
  callee : string;
  prepare : bool;
      (** a [*_prepare] text: executions bind parameters, so the
          prepared signature covers the bound traffic too *)
  signatures : string list;  (** sorted canonical signatures *)
  statements : Sqldb.Sql_ast.statement list;
      (** parsed form of one render per distinct signature, in first-seen
          render order; column-level consumers ({!Leakage}) read select
          lists and WHERE shapes from here instead of re-parsing *)
  open_ : bool;  (** the set may under-approximate *)
  malformed : bool;  (** a constant query text failed to parse *)
  injectable : string list option;
      (** witness: provenance chain of an untrusted value reaching the
          SQL text, source first *)
}

type result = {
  sites : site list;
  signatures : string list;  (** union over sites, sorted *)
  complete : bool;  (** no site is open *)
}

val infer : ?entry:string -> (string * Cfg.t) list -> result
(** Runs the injection-polarity {!Taint} fixpoint (without touching the
    DB-polarity sink labels) and then one {!Dataflow} pass per function
    reachable from [entry] (default ["main"]; if absent, every function
    is treated as a root, mirroring the {!Vet.stage} facts). CFGs with
    no call to one of the four query builtins get the empty, complete
    result at once. The stage is the caller ({!Vet.stage}, lazily, on
    the pruned CFGs, where statically dead branches contribute no
    phantom signatures). *)
