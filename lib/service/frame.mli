(** The binary wire protocol of the scale-out tier.

    Every frame is [magic(2) version(1) type(1) length(4, big-endian)]
    followed by [length] payload bytes. Integers inside payloads are
    LEB128 varints (zigzag for the possibly-negative block id), floats
    are IEEE-754 bits (so scores survive the wire bit-for-bit), and the
    caller/symbol strings of call events are {e interned per
    connection}: the first use ships the bytes and assigns the next
    table index, every later use is a one-or-two-byte back-reference —
    the Calls Collector re-emits the same few dozen strings millions of
    times, and this is what keeps the frame for a typical call event
    under ten bytes.

    Frame kinds: [Hello] (names the peers and carries the node's clock
    sample, exchanged once per connection), [Call]/[Query] (the stream
    items), [Ack] (periodic ingestion feedback from a node),
    [Bye] (end of stream — the node drains its daemon) and answers with
    [Summary] (per-session verdicts, shed accounting, rendered incidents
    and fused axes), and the operations plane: [Clock_probe]/
    [Clock_reply] (per-peer clock offset estimation), [Trace_mark]
    (cross-node trace propagation ahead of each batch),
    [Health_req]/[Health_resp] (node health carrying a value-level
    metrics snapshot — the only way fleet metrics travel; the router
    merges and renders the snapshots) and [Spans_req]/[Spans_resp]
    (collecting node spans for a merged cluster trace). Tags 4 and 5
    are unassigned and refused as {!error.Bad_frame_type}, like any
    tag past the last.

    There is one protocol version: every header is stamped with
    {!protocol_version}, and a frame stamped with any other is refused
    as {!error.Bad_version} — binary recordings from builds that
    stamped version 1 must be re-recorded, not guessed at.

    Decoding is total: any malformed byte yields a structured {!error},
    never an exception, and the decoder stays dead afterwards (binary
    framing cannot resynchronize). *)

val protocol_version : int
(** The wire version (2) every frame header carries; a decoder refuses
    every other stamp. *)

val magic : string
(** The two magic bytes every frame starts with — also how
    {!detect} tells a binary record file from a text one. *)

val max_payload : int
(** Upper bound on a frame's payload length ({!Transport.max_item_bytes},
    the cap the text wire puts on a line); longer frames are rejected
    as {!error.Frame_too_large} before any allocation. *)

type node_summary = {
  node : string;  (** the node's self-chosen name *)
  summary : Daemon.summary;
  incidents : (int * string) list;
      (** (session, {!Alerts.source_to_string} rendering) — without the
          per-node sequence numbers and timestamps *)
  fused : (int * Alerts.fused) list;
      (** per surviving session: which detection axes fired *)
}

type health = {
  h_node : string;  (** the node's self-chosen name *)
  h_status : Health.status;
  h_snapshot : Metrics.snapshot;
      (** value-level metrics, the same snapshot [h_status] was judged
          from; the router merges these exactly with
          {!Metrics.merge_snapshots} *)
  h_incidents : (int * string) list;
      (** tail of the node's incident log, (session, rendering) *)
  h_uptime_s : float;
}

type frame =
  | Hello of { peer : string; sample : (int64 * int64) option }
      (** [sample] is [(monotonic_ns, wall_ns)] read just before the
          frame was staged — the responding node attaches one so the
          initiating router can estimate the node's clock offset. *)
  | Ack of { count : int }  (** events ingested on this connection so far *)
  | Call of Transport.event
  | Query of Transport.query
  | Bye
  | Summary of node_summary
  | Clock_probe of { seq : int }
  | Clock_reply of { seq : int; mono_ns : int64; wall_ns : int64 }
      (** clocks read between receiving the probe and staging the reply;
          the prober dates them at the probe's midpoint (min-RTT) *)
  | Trace_mark of { trace_id : int; send_mono_ns : int64; offset_ns : int64 }
      (** sent ahead of a batch: the batch's trace id, the router's
          clock when it sent, and the router's estimate of {e this
          peer's} offset ([peer_ns - router_ns]) so the node can place
          the router's send instant on its own clock *)
  | Health_req
  | Health_resp of health
  | Spans_req
  | Spans_resp of Adprom_obs.Trace.span list
      (** the node's retained spans, timed by the node's own clock *)

type error =
  | Bad_magic of { byte0 : int; byte1 : int }
  | Bad_version of int
  | Bad_frame_type of int
  | Frame_too_large of { length : int; limit : int }
  | Bad_payload of { frame : string; reason : string }
  | Truncated of { pending : int }
      (** EOF with [pending] bytes of an incomplete frame buffered *)

val error_to_string : error -> string

val frame_name : frame -> string
(** ["hello"], ["call"], ... — for diagnostics. *)

module Encoder : sig
  type t

  val create : unit -> t
  (** Fresh per-connection state: empty interned-string table. *)

  val add : t -> Buffer.t -> frame -> unit
  (** Stage one frame's bytes. Frames accumulate inside the encoder
      and are appended to the buffer in ~4 KiB batches; call {!flush}
      before the buffer's bytes are transmitted. Use one buffer per
      encoder between flushes.
      @raise Invalid_argument on a [Query] with negative [rows] (the
      same corrupt-cardinality guard the text parser applies). *)

  val flush : t -> Buffer.t -> unit
  (** Append any staged frames to [buf]. *)
end

module Decoder : sig
  type t

  val create : unit -> t
  (** Fresh per-connection state: empty interned-string table. *)

  val feed : t -> len:int -> string -> (frame list, error) result
  (** Consume the first [len] bytes of one chunk (a TCP read, or a
      whole file) and return the frames they completed. Partial
      trailing bytes are buffered. An [Error] poisons the decoder:
      every later call returns it again. *)

  val feed_fold :
    t ->
    pos:int ->
    len:int ->
    string ->
    init:'a ->
    f:('a -> frame -> 'a) ->
    ('a * int, error) result
  (** Like {!feed}, but apply [f] to each frame as it completes, with no
      frame list per chunk. Also returns where decoding stopped: the
      chunk's end, unless [f] called {!pause}. *)

  val pause : t -> unit
  (** From {!feed_fold}'s [f]: stop after this frame. The bytes from the
      returned offset on stay unread, for the caller to feed later. *)

  val finish : t -> (unit, error) result
  (** End of stream: [Error (Truncated _)] if an incomplete frame is
      still buffered. *)
end

val detect : string -> Transport.wire
(** [Binary] when the buffer starts with {!magic}, [Line] otherwise —
    lets `adprom replay`/`route` read either record format. *)

val transport_of_wire : Transport.wire -> (module Transport.S)

module T : Transport.S
(** The binary format behind the common transport signature: items
    become [Call]/[Query] frames. [fold] tolerates interleaved [Hello]
    frames (record files may carry one) and rejects any other control
    frame as out of place in an item stream. *)
