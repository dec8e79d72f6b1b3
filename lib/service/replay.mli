(** End-to-end stream replay: feed a multi-tenant stream of wire items
    (decoded by a {!Transport}, or a {!Adprom.Sessions.interleave}d host
    stream wrapped as [Call]s) through a fresh {!Daemon} and collect the
    summary, timing, metrics and incidents. Also the referee for the
    daemon's correctness claim: surviving sessions must score exactly
    like batch {!Adprom.Scoring.monitor} on the demultiplexed traces. *)

type outcome = {
  summary : Daemon.summary;
  seconds : float;  (** ingest + drain wall time *)
  metrics : Metrics.t;
  alerts : Alerts.t;
  events_tail : Adprom_obs.Log.event list;
      (** the daemon's recent structured events (time-ordered), drained
          from the per-shard rings — what the CLI prints on request *)
}

val run : Daemon.t -> Transport.item array -> outcome
(** Ingest every item into [daemon] (built by the caller with
    {!Daemon.create}, which declares every option), drain it and collect
    the outcome. Query items are a no-op unless the daemon's query axis
    is armed, so a mixed stream replayed with the axis off scores
    exactly like its call events alone. The daemon cannot be used
    afterwards. *)

val throughput : outcome -> float
(** Ingested events per second. *)

type mismatch = {
  session : int;
  window_index : int;
  batch : Adprom.Detector.flag option;
  live : Adprom.Detector.flag option;
}

val verify_against_batch :
  Adprom.Profile.t -> Transport.event array -> Daemon.summary -> mismatch list
(** Compare each surviving session's live verdict flags against the
    batch detection loop on the demuxed stream; [[]] means the daemon
    reproduced batch detection exactly. Requires [keep_verdicts]. *)

val mismatch_to_string : mismatch -> string
