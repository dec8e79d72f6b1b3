(** Session routing across serve nodes, and the pieces `adprom route`
    is built from.

    Sessions are sticky: every event of a session must reach the same
    node, or the per-session event order the detector depends on is
    destroyed. The {!Ring} gives that stickiness a stable shape — a
    consistent-hash ring over node names (~64 virtual replicas each), so
    adding or removing a node only remaps the sessions that hashed to
    it. The {!Router} holds one binary connection per node, sprays a
    mixed item stream along the ring, merges the nodes' [Health_resp]
    metrics snapshots into one fleet view, and collects each node's
    [Summary] at shutdown; {!merge} folds those per-node summaries into one
    cluster-wide view with the exact shape of a single node's.

    Because sessions are disjoint across nodes and each node's daemon is
    deterministic per session, the merged verdicts are bit-for-bit the
    single-node replay's — the property [test/test_cluster.ml] pins. *)

module Ring : sig
  type t

  val create : ?replicas:int -> string list -> t
  (** [replicas] virtual points per node (default 64).
      @raise Invalid_argument on an empty node list. *)

  val nodes : t -> string list
  (** In creation order. *)

  val node : t -> int -> string
  (** The node owning a session id: first ring point clockwise of the
      session's hash. Deterministic across processes (the hash is
      FNV-1a, not [Hashtbl.hash]). *)
end

type peer = { peer_name : string; host : string; port : int }

val peer_of_string : string -> (peer, string) result
(** Parse ["host:port"] or ["name=host:port"] (the name defaults to
    ["host:port"] itself — ring placement only needs it to be stable). *)

module Router : sig
  type t
  (** Every operation returning a [result] reports a failed exchange or
      socket as [Error], and answers [Error "router already finished"]
      once {!finish} or {!close} has run. *)

  val connect :
    ?replicas:int -> ?attempts:int -> ?peer:string -> peer list -> (t, string) result
  (** Dial every node (with exponential backoff over [attempts] tries,
      default 10) and exchange [Hello] frames; [peer] (default
      ["router"]) is the name announced, and each node's reply carries
      the clock sample that seeds the router's estimate of that node's
      clock offset ({!clock_sync} refines it). [Error] if any node
      stays unreachable or refuses the hello (a node of another wire
      version closes the connection). *)

  val send : t -> Transport.item -> (unit, string) result
  (** Route one item to its session's node. Items are buffered per node
      and flushed at 32 KiB; a broken connection is redialed with
      backoff (a fresh connection means a fresh interned-string table,
      so the encoder is replaced too) and the items lost with the dead
      connection are counted in {!lost_items}. *)

  val send_stream : t -> Transport.item array -> (unit, string) result

  val flush_all : t -> (unit, string) result
  (** Push every staged and buffered item to its node now (the send
      path otherwise batches at 32 KiB per connection). Load generators
      pair it with {!metrics} — which round-trips after every prior
      frame on each connection — to bound the ingest window they time,
      leaving the drain-and-score work of {!finish} outside the clock. *)

  val lost_items : t -> int
  (** Items acknowledged as lost across reconnects — nonzero means the
      cluster verdicts are not comparable to a single-node replay. *)

  val clock_sync : ?probes:int -> t -> (unit, string) result
  (** Probe every node's monotonic clock [probes] times (default 3)
      and keep, per node, the offset estimated by the round trip with
      the smallest RTT — the sample least distorted by queueing. *)

  val health : t -> ((string * Frame.health) list, string) result
  (** Fan a [Health_req] out to every node (connect order): each
      answers its name, {!Health.status}, value-level metrics snapshot,
      incident tail and uptime. Fold the snapshots with
      {!Metrics.merge_snapshots} for the fleet view. *)

  val spans : t -> ((string * int64 * Adprom_obs.Trace.span list) list, string) result
  (** Collect every node's retained trace spans, each tagged with
      the node's name and clock offset — exactly the groups
      {!Adprom_obs.Trace.dump_chrome_cluster} merges onto one
      timeline (prepend the router's own
      [("router", 0L, Trace.spans ())] group). *)

  val close : t -> unit
  (** Close the connections {e without} sending [Bye]: the nodes keep
      serving. What the observation commands (`adprom status`,
      `adprom top`) end with — {!finish} would drain the fleet.
      Idempotent; the router is unusable afterwards. *)

  val metrics : t -> (string, string) result
  (** The fleet's Prometheus text: {!health}'s snapshots folded by
      {!Metrics.merge_snapshots} (counters and histogram buckets add,
      gauges and their high-watermarks take the max) and rendered by
      {!Metrics.render}, so the text has a node dump's sorted shape,
      [# HELP]/[# TYPE] lines included, with the help texts of
      {!Daemon.metric_help} that a node's [/metrics] prints. Each node
      answers after every frame sent before on its connection, which
      makes this a barrier behind {!flush_all}. *)

  val finish : t -> (Frame.node_summary list, string) result
  (** Flush everything, send [Bye] to every node, await each node's
      [Summary] frame and close. The router is unusable afterwards.
      Summaries come back in the node order given to {!connect}. *)
end

val merge : Frame.node_summary list -> Frame.node_summary
(** One cluster-wide summary: session reports and shed lists
    concatenated (disjoint by the ring) and re-sorted ascending,
    counters summed, incident and fused-axes lists merged. The [node]
    field joins the member names with [+].
    @raise Invalid_argument on an empty list. *)

(** {1 Local nodes for tests and benchmarks}

    Forked single-machine nodes: the parent binds port 0 (so it knows
    the port with no rendezvous file), forks, and the child — which
    inherited the trained profile by memory — runs {!Server.serve} on
    the inherited socket and exits. Fork before creating any daemon in
    the parent: a multi-domain process must not fork. *)

type local = { name : string; pid : int; port : int }

val spawn_local : name:string -> (Unix.file_descr -> unit) -> local
(** [spawn_local ~name serve] forks; the child calls [serve socket]
    (typically a {!Server.serve} closure) and [_exit]s, the parent
    closes its copy of the socket and returns the child's address. *)

val wait_local : local -> unit
(** Reap the node's process (blocking [waitpid]).
    @raise Failure if the node exited non-zero or died on a signal — a
    child that raised out of its serve closure prints the exception to
    stderr and [_exit]s 1, so crashed nodes fail tests instead of
    looking like clean exits. *)

val with_local : string list -> (string -> Unix.file_descr -> unit) -> (local list -> 'a) -> 'a
(** [with_local names serve f] spawns one node per name, in order, the
    node [name] running [serve name socket], and returns [f nodes].
    However [f] ends, by returning or by raising, every node it has not
    reaped with {!wait_local} is then killed (SIGKILL) and reaped, so a
    failed check can never leave a node serving, or holding its parent's
    output pipes open, after the caller has moved on. *)
