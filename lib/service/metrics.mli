(** Daemon observability: a small thread-safe metrics registry
    (counters, gauges with high-watermarks, latency histograms) read
    out in one form, a mergeable value-level snapshot: [Health_resp]
    frames carry it across the cluster, and the Prometheus text
    exposition of a node or of the whole fleet renders it. Counters and
    gauges are lock-free ([Atomic]); histograms take a per-histogram
    mutex. Registering the same name twice returns the existing
    metric. *)

type t

type counter
type gauge
type histogram

val create : unit -> t

val counter : ?help:string -> t -> string -> counter
(** Get-or-create. [help] (first registration wins) becomes the
    [# HELP] line of {!dump}; without it the help text defaults to the
    metric name. @raise Invalid_argument if [name] is already
    registered as a different metric type (same for {!gauge} and
    {!histogram}). *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val gauge : ?help:string -> t -> string -> gauge
val set_gauge : gauge -> int -> unit
val gauge_value : gauge -> int
val gauge_max : gauge -> int
(** High-watermark of all values ever set. *)

val default_buckets : float array
(** Latency buckets in seconds, 1µs .. 1s. *)

val histogram : ?buckets:float array -> ?help:string -> t -> string -> histogram
(** [buckets] are strictly increasing upper bounds; an implicit [+inf]
    bucket is appended. *)

val observe : histogram -> float -> unit
val histogram_count : histogram -> int

val quantile : histogram -> float -> float
(** Upper bound of the bucket containing the [q]-quantile observation
    ([nan] when empty, [infinity] when it falls in the overflow
    bucket). *)

val span_exporter : t -> Adprom_obs.Trace.span -> unit
(** Bridge from tracing to metrics: record the span's duration into the
    histogram [adprom_span_<name>_seconds] (non-alphanumerics in the
    span name become [_]). Register it with
    [Adprom_obs.Trace.on_span_end] to aggregate every finished span. *)

(** {1 Snapshots}

    A snapshot is the registry lowered to plain values — the form a
    node ships in a [Health_resp] frame and the router folds into a
    fleet view. Merging is exact: counters sum, gauges (and their
    high-watermarks) take the max across nodes, histograms with equal
    bucket layouts add bucket-wise, so fleet quantiles come from real
    merged buckets, not averaged per-node quantiles. *)

type hist_snapshot = {
  hs_name : string;
  hs_bounds : float array;
  hs_buckets : int array;  (** raw per-bucket counts, length bounds + 1 *)
  hs_sum : float;
  hs_count : int;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int * int) list;  (** name, value, high-watermark *)
  histograms : hist_snapshot list;
}

val snapshot : t -> snapshot
(** Every metric, sorted by name. Each histogram is copied under its
    own mutex (consistent per histogram, not across the registry). *)

val merge_snapshots : snapshot list -> snapshot
(** Fleet fold: counters summed by name, gauge values and watermarks
    maxed, histogram buckets added when the bucket layouts match (a
    layout mismatch keeps the first node's histogram). Output sorted by
    name. *)

val hist_quantile : hist_snapshot -> float -> float
(** Same contract as {!quantile}, over a snapshot. *)

val snapshot_counter : snapshot -> string -> int
(** The counter's value, 0 when absent. *)

val snapshot_histogram : snapshot -> string -> hist_snapshot option

val render : ?help:(string -> string option) -> snapshot -> string
(** Prometheus text exposition of a snapshot, metrics sorted by name:
    [# HELP] / [# TYPE] lines per family, [name value] samples,
    histograms as full cumulative [_bucket{le="..."}] series (every
    bucket, [+Inf] included) plus [_sum] / [_count], gauges as the
    value plus a [_max] high-watermark gauge. The sort keys the text on
    content, not registration interleaving, so it is diffable across
    runs. [help] supplies each family's help text (default: none, and
    the line repeats the metric name). The router renders a merged
    fleet snapshot this way. *)

val dump : t -> string
(** [render] of the registry's {!snapshot}, with the help texts given
    at registration — what [GET /metrics] serves. *)
