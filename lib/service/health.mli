(** Node health derivation: one place turns a {!Metrics.snapshot} into
    the Ok / Degraded / Unhealthy verdict that the HTTP [/healthz]
    endpoint, the [Health_resp] frame and the fleet dashboard all
    report, so the three surfaces can never disagree. *)

type status = Healthy | Degraded | Unhealthy

val status_to_string : status -> string
(** ["ok"], ["degraded"], ["unhealthy"]. *)

val status_to_int : status -> int
(** 0 / 1 / 2 — the wire encoding of the status. *)

val status_of_int : int -> status option

val worst : status -> status -> status
(** The more severe of the two — the fleet fold. *)

type report = {
  status : status;
  reasons : string list;  (** one per tripped threshold, empty when ok *)
  shed_rate : float;
  queue_depth : int;  (** sum of per-shard depth gauges *)
  queue_hwm : int;  (** max per-shard high-watermark *)
  queue_capacity : int;
  scorer_errors : int;
  e2e_p50 : float;
  e2e_p99 : float;  (** [nan] until the first verdict *)
}

val evaluate : queue_capacity:int -> Metrics.snapshot -> report
(** Derive the node's health from the standard daemon series
    ([adprom_events_{offered,dropped}_total],
    [adprom_queue_depth_shard*], [adprom_scorer_errors_total],
    [adprom_e2e_latency_seconds]). Missing series read as zero /
    [nan], so a fresh node is [Healthy]. The thresholds are fixed: 1%
    shed degrades and 10% fails; a queue high-watermark at 90% of
    [queue_capacity], any scorer error, or an e2e p99 over 1 s
    degrades. *)

val queue : Metrics.snapshot -> int * int
(** [(depth, high_watermark)]: the per-shard depth gauges summed, and
    their largest high-watermark — the report's [queue_depth] and
    [queue_hwm], for a node's snapshot or a merged fleet one. *)

val e2e_quantiles : Metrics.snapshot -> float * float
(** [(p50, p99)] of [adprom_e2e_latency_seconds] ([nan] when absent or
    empty) — the report's [e2e_p50] and [e2e_p99]. *)

val quantile_json : float -> string
(** A quantile as a JSON value: a number, [null] when empty ([nan]),
    ["+Inf"] when in the overflow bucket. *)

val report_to_json : node:string -> uptime_s:float -> report -> string
(** The [/healthz] JSON body, quantiles as {!quantile_json}. *)
