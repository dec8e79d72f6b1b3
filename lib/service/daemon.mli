(** The multi-tenant online monitoring daemon.

    A single-threaded ingestion front-end routes tagged call events to
    one of N shards (hash of the session id), each served by its own
    OCaml 5 domain holding one record per session (its
    {!Adprom.Scoring.Stream}, verdict tally and query-axis scorer).
    Per-shard queues are bounded; when a queue is full the daemon sheds
    the {e whole} offending session — dropping individual events would
    fabricate call transitions no program ever produced (the failure
    mode {!Adprom.Sessions} documents) — and counts every dropped event.
    Because a session always lands on the same shard, per-session event
    order is preserved and verdicts are independent of how sessions
    interleave: replaying a multiplexed stream yields exactly the
    verdicts of batch [Detector.monitor] on the demultiplexed traces.

    [Data_leak] / [Out_of_context] verdicts are forwarded to the
    {!Alerts} sink; throughput, verdict counts, queue depths, drops and
    scoring latency land in the {!Metrics} registry. *)

type session_report = {
  session : int;
  events : int;
  windows : int;
  worst : Adprom.Detector.flag;
  verdicts : Adprom.Detector.verdict list;
      (** arrival order; empty under [keep_verdicts:false] *)
  qsig_checks : int;  (** executed queries checked by the query axis *)
  qsig_anomalies : int;
      (** query-axis anomalies — independent of [worst]/[verdicts],
          which remain sequence-axis only *)
}

type summary = {
  sessions : session_report list;  (** surviving sessions, ascending id *)
  shed : (int * int * int) list;
      (** per shed session: id, events dropped at the door, previously
          accepted events discarded with the session's partial state *)
  events_offered : int;
  events_ingested : int;
  events_dropped : int;  (** [offered = ingested + dropped] always *)
}

type admission = Accepted | Rejected of { newly_shed : bool }

type gate_mode =
  | Gate_off  (** the gate is not built: nothing checked, nothing counted *)
  | Gate_explain
      (** load the DFA for explanations and gate metrics only — classify
          verdicts stay bit-for-bit identical to [Gate_off] *)
  | Gate_enforce
      (** DFA-rejected windows short-circuit to an anomalous verdict
          with no forward pass ({!Adprom.Scoring.set_gate_enforce}) *)

type qsig_mode =
  | Qsig_off  (** ignore query lines: pre-qsig behaviour exactly *)
  | Qsig_warn
      (** check executed queries under the {!Adprom_qsig.Constraints.Flexible}
          policy; anomalies become incidents and metrics only *)
  | Qsig_enforce
      (** check under [Strict] — tighter constraints, so the anomaly
          set is a superset of [Qsig_warn]'s on the same stream *)

type t

val create :
  ?shards:int ->
  ?queue_capacity:int ->
  ?keep_verdicts:bool ->
  ?alerts:Alerts.t ->
  ?vet_against:Analysis.Analyzer.t ->
  ?vet_policy:Adprom.Profile_check.policy ->
  ?static_gate:gate_mode ->
  ?qsig_mode:qsig_mode ->
  ?qsig_profile:Adprom_qsig.Profile.t ->
  ?qsig_static_gate:gate_mode ->
  ?leakage_policy:Applang.Libspec.Sensitivity.t ->
  Adprom.Profile.t ->
  t
(** Spawn the worker domains. Defaults: 4 shards, queue capacity 4096,
    verdicts kept; each shard retains its 256 most recent events. The
    profile is shared read-only across domains. [queue_capacity 0] sheds
    every session on arrival (useful for testing the overload path). Also
    registers a {!Metrics.span_exporter} hook for the daemon's lifetime
    (removed at {!drain}), so span durations aggregate into the metrics
    registry whenever tracing is on.

    [vet_against] runs {!Adprom.Profile_check} on the profile against
    the program's static analysis before any domain spawns, under
    [vet_policy] (default [Warn]: findings are logged with scope
    [daemon] and counted as [adprom_profile_vet_{errors,warnings}_total];
    [Enforce] refuses a profile with error-class findings).

    With [qsig_mode] (default [Qsig_off]) and [qsig_profile], every
    worker compiles the query-signature profile into an
    {!Adprom_qsig.Engine} (the profile is snapshotted before domains
    spawn) and checks the session's executed queries as a second,
    independent detection axis. Query-axis anomalies land in the
    {!Alerts} sink as [Query_verdict] incidents and count toward
    [adprom_qsig_checks_total] / [adprom_qsig_anomalies_total];
    sequence-axis verdicts are bit-for-bit unaffected by the mode.

    The {e static stage} is what [vet_against] tells the running
    monitor. It is built once before the domains spawn, with at most one
    {!Analysis.Qstatic} inference, and installed into every worker's
    engines. The statically possible call pairs let explanations name
    [statically-impossible-pair] gates. Under [static_gate] (default
    [Gate_explain]) the call-sequence automaton ({!Analysis.Seqauto})
    gates windows and drives the vet's n-gram cross-check; its traffic
    is counted as [adprom_dfa_gate_{checks,rejections}_total]. Under
    [qsig_static_gate] (default [Gate_explain]) and an active query
    axis, the program's emittable signature set gates queries, counted
    as [adprom_qsig_gate_{checks,rejections}_total]; under
    [Gate_enforce] a signature the program provably cannot emit
    short-circuits to an [Impossible_signature] anomaly. With
    [leakage_policy], each labeled sink block maps to its
    {!Analysis.Leakage} capability (e.g.
    ["printf <- clients.balance ?{1}"]): once a session fires that sink,
    its actionable verdicts carry the capability
    ({!Alerts.source.Verdict}[.leak]) and count toward
    [adprom_leak_capable_incidents_total]. [Gate_explain] and the policy
    leave verdicts bit-for-bit those of [Gate_off] without a policy.
    Without [vet_against] the gates are inert.

    @raise Invalid_argument on [shards < 1], a negative capacity, a
    profile failing vet under [Enforce], or a [leakage_policy] without
    [vet_against]. *)

val ingest : t -> Transport.event -> admission
(** Route one event (not thread-safe: one acceptor thread). [Rejected]
    is the explicit backpressure signal; [newly_shed] marks the
    admission that tripped the overload policy.
    @raise Invalid_argument after {!drain} or on a negative session id. *)

val ingest_query : t -> Transport.query -> admission
(** Route one executed-query record to its session's shard. A no-op
    [Accepted] when the query axis is off; [Rejected] only when the
    session was already shed (queries are exempt from the shedding
    bound — they are low-volume side traffic and cannot fabricate call
    transitions).
    @raise Invalid_argument after {!drain} or on a negative session id. *)

val ingest_item : t -> Transport.item -> admission
(** {!ingest} or {!ingest_query} by the wire line's kind. *)

val drain : t -> summary
(** Close all queues, let the workers finish scoring, flush every
    session's stream (short sessions get their whole-trace verdict) and
    join the domains. The daemon cannot be used afterwards. *)

val metrics : t -> Metrics.t
val alerts : t -> Alerts.t

val queue_capacity : t -> int
(** The per-shard bound {!create} was given — what {!Health.evaluate}
    relates the queue high-watermark to. *)

val metric_help : string -> string option
(** The help text of one of the daemon's metric families, as its
    registration gives it to {!Metrics}: what a node's [/metrics]
    prints on its [# HELP] line. A fleet dump renders merged snapshots,
    which carry no help table, with this one. *)

val recent_events : t -> Adprom_obs.Log.event list
(** The per-shard recent-event rings (incidents and, at [Debug]
    threshold, per-call events), merged and time-ordered. Call after
    {!drain} — while workers run the rings are theirs, and a concurrent
    read is best-effort. *)
