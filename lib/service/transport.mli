(** The service transport API: one signature both wire formats implement.

    A transport turns the daemon's wire items — tagged call events and
    executed-query records — into bytes and back. Two implementations
    exist: {!Text}, the newline-delimited format (human-greppable,
    what `adprom record` writes unless given [--wire binary]), and
    {!Frame.T}, the length-prefixed versioned binary frame format
    the scale-out tier speaks. Both are {e streaming}: a decoder is fed
    arbitrary byte chunks (split or coalesced TCP reads) and yields the
    items completed so far, so the same code path serves files and
    sockets.

    Decoding is total: malformed input yields [Error], never an
    exception, and a decoder that has reported an error stays dead
    (binary framing cannot resynchronize). Encoders and decoders are
    stateful per connection — the binary format interns caller/symbol
    strings per connection — and are not thread-safe.

    Each decoder also keeps a fixed-size event cache
    ({!Runtime.Collector.Cache}), so a repeated call event decodes to
    one shared record. Decoded events are immutable: compare them with
    [=], never with [==]. A peer sending only distinct events cannot
    grow the cache. *)

type event = Adprom.Sessions.tagged = {
  session : int;
  event : Runtime.Collector.event;
}

type query = { q_session : int; rows : int; sql : string }
(** An executed-query record for the query-signature axis. [rows] is
    the result cardinality the DBMS reported (non-negative); [sql] is
    the executed text with parameters bound. *)

type item = Call of event | Query of query

val item_session : item -> int
(** The session id an item belongs to — the cluster routing key. *)

module type S = sig
  val id : string
  (** ["text"] or ["binary"] — what [--wire] selects. *)

  type enc
  type dec

  val encoder : unit -> enc
  (** Fresh per-connection encoder state (the binary encoder's interned
      string table starts empty). *)

  val decoder : unit -> dec

  val encode : enc -> Buffer.t -> item -> unit
  (** Append one item's wire bytes to [buf]. An encoder may stage
      frames internally and move them to [buf] in batches; call
      {!flush} before transmitting or measuring the buffer. Use one
      buffer per encoder between flushes. *)

  val flush : enc -> Buffer.t -> unit
  (** Drain any internally staged bytes to [buf]. A no-op for the text
      format; the binary encoder batches staged frames so the item hot
      path pays one buffer copy per ~4 KiB rather than one per frame. *)

  val fold :
    dec ->
    ?pos:int ->
    ?len:int ->
    string ->
    init:'a ->
    f:('a -> item -> 'a) ->
    ('a, string) result
  (** Consume one chunk of wire bytes (a TCP read, or a whole file) and
      apply [f] to each item it completes, in order. Partial trailing
      data is buffered for the next call. [Error] poisons the decoder.
      The one decode entry point: {!decode_all} folds a whole buffer. *)

  val finish : dec -> (item list, string) result
  (** Signal end of stream (EOF). Returns the items a final partial
      line yields (text), or [Error] if bytes of an incomplete frame
      are still pending (binary: a truncated stream). *)
end

type wire = Line | Binary

val max_item_bytes : int
(** Upper bound on one item's encoding on either wire: a text line
    (without its newline) or a binary frame payload ({!Frame.max_payload}
    is this value). 16 MiB. *)

val wire_to_string : wire -> string
(** ["text"] / ["binary"]. *)

val encode_all : (module S) -> item array -> string
(** One fresh encoder over the whole array — what record files hold. *)

val decode_all : (module S) -> string -> (item array, string) result
(** One fresh decoder over the whole buffer, [fold] then [finish]. *)

(** {1 The line format}

    [session<TAB>caller<TAB>block<TAB>symbol] for call events (symbol in
    the {!Runtime.Trace_io} encoding), [q<TAB>session<TAB>rows<TAB>sql]
    for executed queries. Blank lines, CRLF endings and [#] comments are
    tolerated; errors carry 1-based [line N:] prefixes. *)
module Text : sig
  include S

  val encode_line : item -> string
  (** One line, without the trailing newline. *)

  val parse_query_line : string -> (query, string) result

  val pending_bytes : dec -> int
  (** Bytes of an incomplete line buffered across feeds. A line that
      would grow past {!max_item_bytes} is a [line N:] error instead, so
      this never exceeds the cap. *)
end
