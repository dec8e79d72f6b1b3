(** End-to-end orchestration: subject application -> traces -> windows
    -> profile, plus the parameter presets for the three systems
    compared in the paper (AD-PROM, CMarkov, Rand-HMM). *)

type app = {
  name : string;
  source : string;  (** AppLang source text *)
  dbms : string;  (** display name, e.g. "PostgreSQL" (Table III) *)
  setup_db : Sqldb.Engine.t -> unit;  (** schema + seed rows; no-op for non-DB apps *)
  test_cases : Runtime.Testcase.t list;
}

type dataset = {
  app : app;
  analysis : Analysis.Analyzer.t;
  traces : (Runtime.Testcase.t * Runtime.Collector.trace) list;
  windows : Window.t list;  (** all Normal-sequences, window length applied *)
}

val analyze_app : app -> Analysis.Analyzer.t
(** Parse and statically analyze the app.
    @raise Applang.Parser.Error / [Applang.Lexer.Error] on bad source. *)

val fresh_engine : app -> Sqldb.Engine.t
(** New engine with the app's schema and seed data. *)

val run_case :
  ?patches:Runtime.Patch.t list ->
  ?query_rewriter:(string -> string) ->
  analysis:Analysis.Analyzer.t ->
  app ->
  Runtime.Testcase.t ->
  Runtime.Collector.trace * Runtime.Interp.outcome
(** Execute one test case on a fresh engine, collecting the trace, under
    [analysis] of the app (an attacked variant's own, for one). *)

val collect : app -> dataset
(** Run every test case and cut the traces into 15-call windows
    (Normal-sequences). *)

val adprom_params : Profile.params
val cmarkov_params : Profile.params
(** pCTM-initialized but without data-flow labels (Xu et al.'s view). *)

val train : ?params:Profile.params -> dataset -> Profile.t

val train_engine : dataset -> Scoring.t
(** [train] followed by {!Scoring.create}: the profile compiled into a
    ready-to-serve scoring engine (interned symbol tables, preallocated
    forward-pass buffers, verdict memo), so classification never pays
    per-window setup. *)

val collect_outcomes :
  ?analysis:Analysis.Analyzer.t -> app -> Runtime.Interp.outcome list
(** Run every test case for its outcome only (no trace windowing) —
    the training input of the query-signature axis. *)

val train_qsig : ?analysis:Analysis.Analyzer.t -> app -> Adprom_qsig.Profile.t
(** Query-signature profile over all training outcomes ({!Audit.learn}
    on {!collect_outcomes}). *)

val train_qsig_engine : app -> Adprom_qsig.Engine.t
(** {!train_qsig} compiled for repeated checking. *)
