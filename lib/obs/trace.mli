(** Hierarchical tracing: spans with monotonic-clock timing, trace /
    span ids and per-domain context, near-zero-cost when disabled.

    A span covers the execution of a thunk ({!with_span}). Spans nest
    through a per-domain context stack: a span opened while another is
    running becomes its child and inherits its trace id; a span opened
    with an empty stack roots a fresh trace. When tracing is disabled
    (the default) [with_span] is one atomic load and a tail call — no
    ids, no clock reads, no allocation — so instrumentation can stay
    in production code.

    Finished spans land in a bounded global buffer (completion order)
    and are fanned out to registered {!on_span_end} hooks — the daemon
    uses one to export span durations into its metrics histograms.
    {!to_chrome_json} renders spans in the Chrome [trace_event] format
    ([chrome://tracing], Perfetto). *)

type span = {
  name : string;
  trace_id : int;  (** id of the root span of this trace *)
  span_id : int;  (** unique across the process *)
  parent : int option;  (** enclosing span id, [None] for roots *)
  domain : int;  (** domain that ran the span *)
  start_ns : int64;  (** {!Clock.monotonic_ns} at entry *)
  dur_ns : int64;
  attrs : (string * string) list;
}

val set_enabled : bool -> unit
(** Also the off switch for {!on_span_end} hooks. Disabling does not
    drop already collected spans. *)

val enabled : unit -> bool

val with_span :
  ?attrs:(unit -> (string * string) list) -> string -> (unit -> 'a) -> 'a
(** Run the thunk under a span. [attrs] is evaluated once, after the
    thunk finishes (so it can report results via a ref) and only when
    tracing is enabled; if it raises, the span keeps empty attrs. The
    span is recorded even when the thunk raises, and the exception is
    re-raised. *)

val fresh_id : unit -> int
(** Allocate the next span/trace id — for spans whose timing is
    measured externally ({!record_span}) or propagated across
    processes (the router stamps each batch with one). *)

val record_span :
  ?attrs:(string * string) list ->
  trace_id:int ->
  name:string ->
  start_ns:int64 ->
  dur_ns:int64 ->
  unit ->
  unit
(** Record an externally-timed span (no context-stack involvement, no
    parent): what a cluster node uses to materialize the router→node
    wire span from a batch's propagated trace id and send timestamp.
    Unlike {!with_span} this is {e not} gated on {!enabled} —
    propagated trace context only arrives because the sending process
    is already tracing, and the receiving node must not need its own
    switch flipped to answer span collection. *)

val current_trace_id : unit -> int option
(** The trace id of the innermost open span on this domain, if any —
    what log events and collector tags join traces on. *)

val set_capacity : int -> unit
(** Bound on retained finished spans (default 65536, oldest dropped
    first). Resetting the capacity clears collected spans.
    @raise Invalid_argument on a negative capacity. *)

val spans : unit -> span list
(** Retained finished spans, completion order. *)

val span_count : unit -> int
(** Spans finished since the last {!clear}, including any that
    rotated out of the bounded buffer. *)

val clear : unit -> unit
(** Drop collected spans (ids keep increasing; hooks stay). *)

type hook

val on_span_end : (span -> unit) -> hook
(** Called for every finished span while tracing is enabled, on the
    domain that ran the span, outside any internal lock. A raising
    hook is disabled permanently. *)

val remove_hook : hook -> unit

val to_chrome_json : span list -> string
(** Chrome [trace_event] JSON: one complete event (["ph":"X"]) per
    span, timestamps in microseconds relative to the earliest span,
    [tid] = domain, span/trace/parent ids and attrs under ["args"]. *)

val dump_chrome : string -> unit
(** Write [to_chrome_json (spans ())] to a file. *)

val to_chrome_json_cluster : (string * int64 * span list) list -> string
(** Merge several processes' spans onto one timeline. Each group is
    [(process_name, offset_ns, spans)] where [offset_ns] maps that
    process's monotonic clock onto the reference clock
    ([local_ns - offset_ns = reference_ns] — the offset a min-RTT
    clock probe estimates; use [0L] for the reference process itself).
    Groups render as separate Chrome processes (a [process_name]
    metadata event plus [pid] per group) against a shared epoch, so
    router→node handoffs line up across nodes. *)

val dump_chrome_cluster : string -> (string * int64 * span list) list -> unit
(** Write [to_chrome_json_cluster groups] to a file. *)
