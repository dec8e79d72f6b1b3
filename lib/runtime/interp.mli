(** The AppLang interpreter with dynamic instrumentation.

    Executes a program against the mini DB engine under a scripted test
    case, reporting every library call to a {!Collector.t}. Output
    calls receiving tainted (DB-derived) values are emitted with their
    [_Q<block>] label — the dynamic half of AD-PROM's data-flow
    tracking — and {!Patch} injections fire at their instrumentation
    points, emulating Dyninst binary rewriting. *)

type outcome = {
  stdout : string;
  files : (string * string) list;  (** path, final written contents *)
  system_calls : string list;  (** in issue order *)
  queries : string list;  (** raw SQL texts submitted, in issue order *)
  query_log : (string * int) list;
      (** executed queries (parameters bound into the text) paired with
          their result cardinality, in execution order — the view a
          server-side audit log has; input to the query-signature axis *)
  tainted_files : string list;
      (** paths that received targeted data (Sec. VII file labeling) *)
  sink_flows : (int * (string * string)) list;
      (** observed provenance flows: (sink CFG block, (table, column))
          pairs where a value carrying {!Rvalue.t.tags} reached a sink
          call, in first-observation order, deduplicated — the dynamic
          ground truth the static {!Analysis.Leakage} summary must
          cover when complete *)
  responses : string;  (** HTTP response stream of a web-app run *)
  steps : int;
  leaked_values : int;  (** tainted values that reached output statements *)
  status : (unit, string) result;
}

val run :
  collector:Collector.t ->
  analysis:Analysis.Analyzer.t ->
  engine:Sqldb.Engine.t ->
  Testcase.t ->
  outcome
(** Run [main()] for at most 1,000,000 interpreter steps. Run-time
    errors are reported in [status], never raised. *)

val collect_trace :
  ?patches:Patch.t list ->
  ?query_rewriter:(string -> string) ->
  analysis:Analysis.Analyzer.t ->
  engine:Sqldb.Engine.t ->
  Testcase.t ->
  Collector.trace * outcome
(** Convenience: run under the AD-PROM collector and return the trace. *)
