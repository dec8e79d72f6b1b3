(** A TCP front door for one monitoring daemon — the `adprom serve
    --listen` node of a cluster.

    {!serve} is a single-threaded [select] loop over {!Conn}, one
    connection's protocol without its socket, which feeds the daemon's
    (single-acceptor) ingest path; scoring still happens on the
    daemon's own worker domains. Each connection autodetects its wire
    format from its first bytes: {!Frame.magic} → binary frames, a
    [GET]/[HEAD] method name → plain HTTP, anything else → the
    {!Transport.Text} line format — so `nc` with a text record file,
    the binary {!Cluster.Router} and `curl` all work against the same
    port.

    The HTTP side is the node's operations plane (one request per
    connection, then close): [GET /metrics] answers the Prometheus text
    exposition ({!Metrics.dump}), [GET /healthz] the {!Health} report as
    JSON (status 503 when [Unhealthy], 200 otherwise), and
    [GET /incidents?n=K] the newest [K] incidents of the {!Alerts} log
    as JSON. Requests are counted in [adprom_http_requests_total].

    Binary connections speak the full {!Frame} protocol: [Hello] is
    answered with the node's name and a clock sample, [Call]/[Query]
    frames are ingested (with an [Ack] sent back every 4096 accepted
    items as flow feedback), [Health_req] is answered with the node's
    status, the one {!Metrics.snapshot} that status was judged from,
    the newest 32 incidents and the uptime, [Spans_req] with the
    newest 10,000 retained spans, and [Bye] ends the serve loop — the
    daemon drains and the node replies with its [Summary] frame on that
    connection. Text connections can only stream items; they end at EOF.

    A connection that sends undecodable bytes — a frame stamped with
    another wire version than {!Frame.protocol_version} included — is
    closed without a reply and counted in
    [adprom_wire_decode_errors_total]; the node keeps serving.

    No peer can stall the node: sockets are non-blocking, replies wait
    in their connection's output until the peer reads them, and a
    connection owing more than {!Conn.max_owed} is not read until it
    drains. A descriptor [select] cannot watch (past FD_SETSIZE) is
    closed at once, and a failed [accept] is skipped; both count
    in [adprom_wire_connections_refused_total]. *)

(** Bytes owed to a peer, staged and then written in order: a {!Conn}'s
    replies, a {!Cluster.Router}'s items. *)
module Outbox : sig
  type t

  val create : int -> t  (** the staging buffer's initial size *)

  val staged : t -> Buffer.t
  val owed : t -> int

  val drain : t -> (Bytes.t -> int -> int -> int) -> bool
  (** Give owed bytes to [write buf pos len], which returns how many it
      took, until it takes less ([false]) or nothing is owed ([true]). *)
end

(** One connection's protocol, without its socket: bytes in, items to
    the daemon, replies appended in order to the connection's output. *)
module Conn : sig
  type node
  (** What a node's connections share: name, daemon, start time and
      the wire counters, registered in {!Daemon.metrics}. *)

  val node : name:string -> Daemon.t -> node

  type t

  type state =
    | Open
    | Closing  (** close once nothing is owed; input is ignored *)
    | Bye  (** drain the daemon, then {!summarize} *)

  val create : node -> t
  val state : t -> state

  val feed : t -> len:int -> string -> unit
  (** The first [len] bytes of [s], from the peer (not retained).
      Once the output owes more than {!max_owed}, the rest waits,
      unread, for {!drain}. *)

  val eof : t -> unit
  (** The peer hung up: a final text line is ingested, a truncated
      frame counted as a decode error. *)

  val max_owed : int
  (** 1 MiB; the output exceeds it by one reply at most. *)

  val owed : t -> int
  val readable : t -> bool  (** [Open], owing at most {!max_owed} *)

  val drain : t -> (Bytes.t -> int -> int -> int) -> unit
  (** {!Outbox.drain}, then process the input kept unread if the output
      is back under the cap. *)

  val summarize : t -> Daemon.summary -> unit
  (** Answer the [Bye] with the node's [Summary] frame.
      @raise Invalid_argument in any other state. *)
end

val bind : ?host:string -> int -> Unix.file_descr * int
(** Bind and listen on [host:port] ([host] defaults to 127.0.0.1); port
    0 picks an ephemeral port, and the actual port is returned. The
    caller owns the socket and passes it to {!serve} — binding
    separately is what lets a test bind port 0 {e before} forking the
    node, so the parent knows the port without a rendezvous. *)

val serve :
  socket:Unix.file_descr ->
  ?name:string ->
  ?shards:int ->
  ?queue_capacity:int ->
  ?keep_verdicts:bool ->
  ?alerts:Alerts.t ->
  ?vet_against:Analysis.Analyzer.t ->
  ?vet_policy:Adprom.Profile_check.policy ->
  ?static_gate:Daemon.gate_mode ->
  ?qsig_mode:Daemon.qsig_mode ->
  ?qsig_profile:Adprom_qsig.Profile.t ->
  ?qsig_static_gate:Daemon.gate_mode ->
  ?leakage_policy:Applang.Libspec.Sensitivity.t ->
  Adprom.Profile.t ->
  Replay.outcome
(** Create the daemon (options as {!Daemon.create}), serve [socket]
    until a [Bye] frame arrives, then drain and return the node's
    outcome — the same shape {!Replay.run} yields, so the CLI prints
    both identically. [name] (default ["node"]) is what the node calls
    itself in [Hello] and [Summary] frames. *)
