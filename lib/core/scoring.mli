(** The compiled scoring engine — the detection loop's hot path
    (Sec. IV-D), built once per profile.

    [create] compiles a profile for repeated scoring: observation
    symbols are interned to dense int codes, the HMM tables are
    flattened into preallocated float arrays ({!Hmm.Compiled}), callers
    are interned and the (caller, call) pairs become an int-keyed set,
    and verdicts are memoized in a bounded LRU keyed by the encoded
    window — a hit skips the O(window·n²) forward pass entirely. The
    forward pass itself reuses scratch buffers and allocates nothing.

    Equivalence guarantee: for every profile and window, {!classify}
    returns exactly {!Detector.reference_classify} — same flag,
    bit-for-bit same score, same [unknown_symbol] and [unknown_pair]
    (property-tested in [test/test_scoring.ml]).

    An engine is {b not} thread-safe (it owns scratch buffers and the
    memo): use one engine per domain. Callers build one with {!create}
    where they build or load the profile, and keep it. *)

type flag =
  | Normal
  | Anomalous
  | Data_leak
  | Out_of_context

type verdict = {
  flag : flag;
  score : float;
  unknown_symbol : bool;  (** the window used a call never seen in training *)
  unknown_pair : (string * Analysis.Symbol.t) option;
      (** first out-of-context (caller, call) pair, if any *)
}

type t

val create : ?cache_capacity:int -> Profile.t -> t
(** Compile the profile. [cache_capacity 0] disables the verdict memo
    (every window pays the forward pass).
    @raise Invalid_argument on a negative capacity. *)

val profile : t -> Profile.t

val threshold : t -> float
(** The detection threshold in force — the profile's, unless
    {!set_threshold} overrode it. *)

val set_threshold : t -> float -> unit
(** Override the detection threshold (adaptive monitoring); flushes the
    verdict memo when the value actually changes. *)

val set_static_pairs : t -> (string * Analysis.Symbol.t) list option -> unit
(** Load ([Some], e.g. the pairs of [Analysis.Vet.recordable] facts) or clear ([None])
    the statically possible (caller, call) pairs. Pairs are projected
    through the profile's label view on the way in. Explanation gating
    only: {!explain} refines {!Unknown_pair} into
    {!Statically_impossible_pair} for pairs outside the set, while
    {!classify} verdicts stay bit-for-bit unchanged (no memo flush). *)

val static_pairs_loaded : t -> bool

(** {1 The call-sequence automaton gate}

    {!set_static_dfa} loads an {!Analysis.Seqauto} automaton whose
    language over-approximates the library-call sequences the program
    can emit. Loaded but not enforced ("explain" mode), it only refines
    {!explain} output ({!Statically_impossible_window}) — {!classify}
    verdicts stay bit-for-bit identical to an engine without it. With
    {!set_gate_enforce}[ true], {!classify} walks the window through the
    DFA {e before} the memo and the forward pass: a rejected window —
    one the static phase proved no execution can produce — short-circuits
    to an anomalous verdict ([score = neg_infinity], flag by the usual
    label/pair evidence) without paying the O(window·n²) pass, and never
    enters the memo. *)

val set_static_dfa : t -> Analysis.Seqauto.t option -> unit
(** Load ([Some]) or clear ([None]) the automaton; flushes the memo.
    @raise Invalid_argument when the automaton was built under a
    different label view than the profile's. *)

val set_gate_enforce : t -> bool -> unit
(** Toggle enforce mode (default off); flushes the memo on change.
    Without a loaded automaton, enforce mode gates nothing. *)

val gate_checks : t -> int
(** DFA walks performed — enforce-mode [classify] gates plus
    explain-mode window checks. *)

val gate_rejections : t -> int
(** Walks that died: windows proven statically impossible. *)

val classify : t -> Window.t -> verdict
(** Score and flag one window; identical to
    [Detector.reference_classify (profile t)] (with the engine's
    threshold). Windows containing symbols outside the alphabet score
    [neg_infinity] without a forward pass and bypass the memo. *)

val monitor : t -> Runtime.Collector.trace -> (Window.t * verdict) list
(** Slide the profile's window over a trace and classify each position
    — the batch detection loop, memoized. *)

(** {1 Verdict explainability}

    Why was a window flagged? {!explain} names the gate that fired and
    ranks the surprising steps, so an incident can be triaged without
    re-deriving the model's view of the window. Computed only on
    anomalous verdicts — the hot path never pays for it. *)

type gate =
  | Unknown_symbol  (** a call outside the training alphabet *)
  | Unknown_pair of (string * Analysis.Symbol.t)
      (** a known call from a caller never seen issuing it *)
  | Statically_impossible_pair of (string * Analysis.Symbol.t)
      (** an out-of-context pair the static analysis proved the program
          cannot produce at all — trace tampering or a profile/program
          mismatch rather than behavioural drift; requires
          {!set_static_pairs}, otherwise such pairs report as
          {!Unknown_pair} *)
  | Statically_impossible_window
      (** every symbol and pair is known, but the call-sequence
          automaton proves no execution of the program emits this
          window in this order — requires {!set_static_dfa} *)
  | Below_threshold  (** HMM likelihood under the detection threshold *)

type contribution = {
  position : int;  (** index within the window *)
  symbol : Analysis.Symbol.t;
  caller : string;
  surprisal : float;
      (** [-log P(o_i | o_0..o_{i-1})] under the profile's HMM;
          [infinity] for symbols outside the alphabet *)
}

type explanation = {
  gate : gate;  (** the highest-priority gate that fired *)
  verdict : verdict;
  exp_threshold : float;  (** threshold in force when classified *)
  margin : float;
      (** how decisively the gate fired: [threshold -. score] (strictly
          positive) for {!Below_threshold}, [infinity] for the
          categorical gates — always non-negative *)
  top : contribution list;  (** most surprising steps, descending *)
}

val explain : top:int -> t -> Window.t -> explanation option
(** [None] exactly when {!classify} returns [Normal]. Gate priority:
    [Unknown_symbol] over [Unknown_pair] / [Statically_impossible_pair]
    (the latter when {!set_static_pairs} facts rule the pair out) over
    [Below_threshold]. [top] bounds the ranked contributions. Costs one
    extra forward pass over the window — only ever paid on anomalies. *)

val gate_to_string : gate -> string
val explanation_to_string : explanation -> string

val extend : t -> Window.t list -> t
(** [Profile.extend] then recompile: the new engine starts with an
    empty memo, so no verdict of the old model can leak past the
    extension. The old engine stays valid for the old profile. *)

val cache_hits : t -> int
val cache_misses : t -> int
val cache_len : t -> int
val cache_capacity : t -> int

(** {1 Packed ring slots}

    A {!Stream} ring holds each prepared call as one int: its alphabet
    code ([-1] outside the alphabet), its interned caller id ([-1]
    unless callers are tracked and the code is known), and whether it
    is a labeled output and a known (caller, call) pair. A slot's
    {!Slot.key} is the int that a verdict-memo key holds at its window
    position, with or without caller tracking. Exposed so that tests
    can pin the encoding. *)
module Slot : sig
  val code_bits : int -> int
  (** The code field's width for an alphabet of [m] symbols: the least
      [b] with [m < 2^b]. {!create} fixes it per engine.
      @raise Invalid_argument when fewer than 32 of a key's 61 bits
      would remain for caller ids, i.e. [m >= 2^29]. *)

  val pack : code_bits:int -> code:int -> cid:int -> labeled:bool -> pair_known:bool -> int
  (** [((cid + 1) lsl code_bits lor (code + 1)) lsl 2 lor labeled lsl 1
      lor pair_known]. Decodes exactly while [-1 <= code < 2^code_bits - 1]
      and [-1 <= cid < 2^(61 - code_bits) - 1]. *)

  val key : int -> int
  (** [p lsr 2]: one int per (code, caller id). *)

  val code : code_bits:int -> int -> int
  val cid : code_bits:int -> int -> int
  val labeled : int -> bool
  val pair_known : int -> bool
end

module Stream : sig
  (** Per-session incremental scoring over the engine: a ring of
      prepared slots (symbols are interned once, at [push]), classified
      on every arrival once full, by the same window decision as
      {!classify}. All sessions of a domain share the engine's verdict
      memo, so tenants replaying similar windows score each other's
      work. Feeding a whole trace and flushing yields exactly the
      verdicts of [monitor] on that trace, and each verdict equals
      [Detector.reference_classify] on its [Window.of_trace] window
      under the threshold in force (property-tested). *)

  type engine = t

  type t

  val create : ?window:int -> engine -> t
  (** [window] defaults to the profile's window length.
      @raise Invalid_argument if [window <= 0]. *)

  val engine : t -> engine
  val window : t -> int

  val push : t -> Runtime.Collector.event -> (verdict option, string) result
  (** Ingest one event; [Ok (Some verdict)] once at least [window]
      events have been seen. After {!flush}, a soft [Error] — never an
      exception — so a daemon shard can account a protocol slip without
      dying. *)

  val flush : t -> verdict option
  (** End of session: a non-empty session shorter than the window
      yields its single whole-trace verdict. Idempotent. *)

  val events_seen : t -> int
  val flushed : t -> bool

  val explain_last : t -> explanation option
  (** Explain the window most recently scored by {!push} (the full
      ring) or {!flush} (the short tail), from the verdict it got
      there, with its 3 top contributions: unlike {!explain}, it does
      not classify the window again, so it adds no memo hit or miss and
      no enforce-mode gate check.
      [None] if that window was [Normal], or if nothing has been
      classified yet. *)
end
