(** The Analyzer component (Sec. IV-B1): everything AD-PROM derives
    statically from a program, bundled. *)

type event = { symbol : Symbol.t; caller : string; block : int }
(** One library call as the Calls Collector (Sec. IV-B2) records it:
    the observable call symbol (name and DB-output label), the calling
    function, and the static block id of the call site ([-1] when
    unknown). {!Runtime.Collector.event} is this type. Events are
    immutable and shared between calls, traces and decoded streams:
    compare them with [=], never with [==]. *)

type t = {
  program : Applang.Ast.program;
  cfgs : (string * Cfg.t) list;
  callgraph : Callgraph.t;
  sites : Cfg.Sites.sites;  (** call expression -> block id *)
  taint : Taint.result;  (** DB-output labeling *)
  pruned_cfgs : (string * Cfg.t) list;
      (** {!Prune}d graphs (dead branch arms removed); share the
          original node records, so taint labels show through *)
  pruning : Prune.report list;  (** what the feasibility prepass removed *)
  ctms : (string * Ctm.t) list;
      (** per-function CTMs, post labeling, on the pruned graphs *)
  pctm : Ctm.t;  (** aggregated program CTM *)
  site_events : event array;
      (** every library call site's two events, built once here and
          shared by every trace the interpreter collects under this
          analysis; read through {!site_event} *)
}

val analyze : ?entry:string -> Applang.Ast.program -> t
(** Full static phase: CFGs, call graph, taint labeling, branch
    feasibility pruning, probability forecast (on the pruned graphs),
    aggregation. [entry] defaults to ["main"].
    @raise Invalid_argument when [entry] is not defined. *)

val block_of_call : t -> Applang.Ast.expr -> int option
(** Block id of a (physical) [Call] sub-expression of the program. *)

val site_event : t -> block:int -> labelled:bool -> event
(** The event of library call site [block] (a block id {!block_of_call}
    returned for a library call): its symbol is labelled [_Q<block>]
    when [labelled], bare otherwise. The same record on every call. *)
