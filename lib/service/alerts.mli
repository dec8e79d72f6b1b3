(** Unified incident log: the security administrator's single queue.

    Two alarm channels land here in one timestamp-ordered stream — the
    Detection Engine's actionable verdicts ([Data_leak] and
    [Out_of_context] flags) and the run-level {!Adprom.Audit} findings
    (unknown query signatures, tainted-file shell commands). Recording
    is safe from multiple domains; ordering is by a global atomic
    sequence number assigned at record time. *)

type source =
  | Verdict of {
      window_index : int;
      verdict : Adprom.Detector.verdict;
      explanation : Adprom.Scoring.explanation option;
          (** why the gate fired — attached by the daemon for every
              recorded verdict, rendered by {!incident_to_string} *)
      leak : string option;
          (** the statically-known leak capability of the sink site
              that fired (rendered {!Analysis.Leakage} atoms), when the
              daemon was given a leakage policy *)
    }
  | Finding of Adprom.Audit.finding
  | Query_verdict of {
      query_index : int;  (** 0-based index in the session's query stream *)
      sql : string;
      verdict : Adprom_qsig.Engine.verdict;
    }  (** the query-signature axis fired on one executed query *)

type axis = Sequence_axis | Query_axis
(** Which detection axis an incident belongs to: the call-sequence HMM
    (plus the findings derived from the same instrumentation stream) or
    the query-signature engine. *)

val axis_of_source : source -> axis
val axis_to_string : axis -> string

type fused = No_alarm | Sequence_only | Query_only | Both_axes
(** Two-axis fusion of a session's incidents: which axes fired. *)

val fused_to_string : fused -> string

type incident = { seq : int; time : float; session : int; source : source }

type t

val create : ?clock:(unit -> float) -> unit -> t
(** [clock] defaults to [Unix.gettimeofday] (injectable for tests). *)

val record_verdict :
  ?explanation:Adprom.Scoring.explanation ->
  ?leak:string ->
  t ->
  session:int ->
  window_index:int ->
  Adprom.Detector.verdict ->
  bool
(** Record the verdict if its flag is [Data_leak] or [Out_of_context];
    returns whether an incident was logged ([Normal]/[Anomalous] are
    the detector's business, not the administrator's queue). *)

val record_finding : t -> session:int -> Adprom.Audit.finding -> unit

val record_query_verdict :
  t ->
  session:int ->
  query_index:int ->
  sql:string ->
  Adprom_qsig.Engine.verdict ->
  bool
(** Record a query-axis verdict if it is anomalous; returns whether an
    incident was logged. *)

val fused_axes : t -> session:int -> fused
(** Which detection axes have fired for [session] so far. *)

val incidents : t -> incident list
(** All incidents, timestamp-ordered (ascending [seq]). *)

val count : t -> int

val source_to_string : source -> string
(** The incident's payload rendered without its [seq]/[time] header —
    the stable part a cluster node ships in its summary frame (sequence
    numbers and timestamps are per-node and never comparable). *)

val incident_to_string : incident -> string
val to_string : t -> string
