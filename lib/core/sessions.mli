(** Multi-session monitoring.

    A deployed Calls Collector sees one event stream per monitored
    process; naively concatenating or interleaving concurrent sessions
    would manufacture call transitions that no single program run ever
    produced. This module simulates the operational setting: interleave
    per-session traces into one host stream (tagged with session ids,
    like the PID Dyninst reports) and demultiplex back before windowing.

    The [interleaved-sessions] bench shows why this matters: windows cut
    from the raw host stream alarm on perfectly normal activity, while
    demultiplexed windows do not. *)

type tagged = { session : int; event : Runtime.Collector.event }

val interleave :
  rng:Mlkit.Rng.t -> Runtime.Collector.trace list -> tagged array
(** Merge traces into one host stream: at each step an event is drawn
    from a uniformly chosen session that still has events (order within
    each session is preserved). *)

val demux : tagged array -> (int * Runtime.Collector.trace) list
(** Recover the per-session traces, in ascending session order. *)

val windows_naive : window:int -> tagged array -> Window.t list
(** Windows cut straight from the host stream, ignoring session
    boundaries — what a session-unaware monitor would score. *)

val windows_per_session : window:int -> tagged array -> Window.t list
(** Demultiplex, then window each session separately — the correct
    monitoring discipline. *)
