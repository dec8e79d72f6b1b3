(** The compiled query-signature engine — the query axis' hot path,
    built once per profile, mirroring {!Adprom.Scoring} for the
    sequence axis.

    [create] interns the profile's signatures to dense codes and
    resolves each to its slot constraints and cardinality band. Every
    static property of a query text — parseability, signature lookup,
    predicate-widening warnings, slot-constraint violations — is
    memoized per raw text in a bounded table, so the steady-state cost
    of a repeated query is one hash lookup plus the band comparison.
    Parse failures are soft: returned as a {!Malformed} anomaly, never
    raised.

    An engine is not thread-safe (it owns the memo and counters): use
    one per domain, as the daemon does per shard. *)

type reason =
  | Unknown_signature of string  (** a shape never seen in training *)
  | Impossible_signature of string
      (** rejected by the static gate: the monitored program's code
          cannot emit this signature, so the query came from somewhere
          else (injection, MITM, or a cross-program profile) *)
  | Malformed of string  (** unparseable query text *)
  | Tautology  (** WHERE true regardless of row data (Attack 5 shape) *)
  | Constant_comparison  (** a literal-to-literal comparison in WHERE *)
  | Slot_violation of { slot : int; why : string }
      (** a literal outside its trained constraint *)
  | Cardinality_blowup of { rows : int; lo : int; hi : int }
      (** result size outside the trained band — the leak channel *)

type verdict = { anomalous : bool; reasons : reason list }

val reason_to_string : reason -> string
val verdict_to_string : verdict -> string

type t

val create : ?policy:Constraints.policy -> Profile.t -> t
(** Compile the profile under a policy (default [Strict]). Compiled
    query texts are memoized, 4096 at most. *)

val check : ?rows:int -> t -> string -> verdict
(** Check one executed query; [rows] enables the cardinality-band
    check. Never raises. *)

val check_log : t -> (string * int) list -> verdict list
(** Batch form over an executed-query log; equals folding
    {!Scorer.push} over the same log (property-tested). *)

val checks : t -> int
val anomalies : t -> int
val memo_hits : t -> int
val memo_misses : t -> int

(** {2 Static-signature gate}

    The pre-scoring gate over {!Analysis.Qstatic} results, mirroring
    [Adprom.Scoring.set_static_dfa] on the sequence axis. Load the
    program's statically inferred signature set with
    {!set_static_signatures}; every {!check} then counts one gate check
    and, when the query's canonical signature is provably outside the
    set, one gate rejection. In explain mode (the default) the verdict
    is bit-for-bit what the ungated engine returns — only the counters
    move. Under {!set_gate_enforce} the check short-circuits before the
    constraint layer with an [Impossible_signature] anomaly.

    An incomplete static set ([complete:false] — the inference left an
    open call site) never rejects: absence from an under-approximated
    set proves nothing. Malformed texts are never gate-rejected. *)

val set_static_signatures : t -> complete:bool -> string list -> unit
(** Install the static signature set (flushes the memo — cached gate
    verdicts would be stale). *)

val set_gate_enforce : t -> bool -> unit
(** [false] (default) is explain mode; [true] turns gate hits into
    [Impossible_signature] anomalies. *)

val gate_checks : t -> int
(** Checks performed while a static set was loaded. *)

val gate_rejections : t -> int
(** Gate hits — would-be rejections in explain mode, actual anomalies
    under enforce. *)

module Scorer : sig
  (** Per-session streaming checker: one [push] per executed query.
      All sessions of a domain share the engine's memo, so tenants
      issuing the same statements score each other's work. *)

  type engine = t

  type t

  val create : engine -> t
  val engine : t -> engine

  val push : t -> rows:int -> string -> verdict

  val queries_seen : t -> int
  val anomalies : t -> int
  val last : t -> verdict option
end
