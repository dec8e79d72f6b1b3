(** The Detection Engine (Sec. IV-B4, IV-D).

    Scores n-length call sequences under the profile's HMM and flags
    them for the security administrator:

    - [Normal]: score above threshold, every (caller, call) pair known;
    - [Data_leak]: anomalous sequence containing a DB-output (labeled)
      call — targeted data is involved;
    - [Out_of_context]: a known library call issued from a function that
      never issued it during training;
    - [Anomalous]: everything else below threshold.

    Since the scoring-engine redesign, [classify] and [monitor] are
    thin wrappers over the compiled {!Scoring} engine (interned
    symbols, allocation-free forward pass, memoized verdicts) obtained
    via {!Scoring.of_profile}; their behaviour is unchanged.
    {!reference_classify} keeps the original uncompiled path as the
    executable specification. *)

type flag = Scoring.flag =
  | Normal
  | Anomalous
  | Data_leak
  | Out_of_context

type verdict = Scoring.verdict = {
  flag : flag;
  score : float;
  unknown_symbol : bool;  (** the window used a call never seen in training *)
  unknown_pair : (string * Analysis.Symbol.t) option;
      (** first out-of-context (caller, call) pair, if any *)
}

val flag_to_string : flag -> string

val classify : Profile.t -> Window.t -> verdict
(** Equivalent to [Scoring.classify (Scoring.of_profile profile)]:
    identical verdicts and bit-for-bit identical scores to
    {!reference_classify}, amortized over the domain-local compiled
    engine. *)

val reference_classify : Profile.t -> Window.t -> verdict
(** The original, uncompiled detection path — no interning, no memo.
    A reference: the specification the engine is property-tested
    against (test_scoring's "Scoring.classify = reference_classify
    (incl. memo hits)" and "Stream verdicts = reference_classify on
    each Window.of_trace window"), the [reference_classify] gate of
    [bench/perf], and the pre-compilation baseline of the benches. *)

val monitor : Profile.t -> Runtime.Collector.trace -> (Window.t * verdict) list
(** Slide the profile's window over a run-time trace and classify each
    position — the online detection loop. *)

val severity : flag -> int
(** The one severity order of flags: [Normal] 0, [Anomalous] 1,
    [Out_of_context] 2, [Data_leak] 3. *)

val worst : verdict list -> flag
(** Most severe flag of a run (by {!severity}); [Normal] for the empty
    list. *)

type surprise = {
  position : int;  (** index within the window *)
  symbol : Analysis.Symbol.t;
  caller : string;
  surprisal : float;  (** -log P(symbol | prefix); infinity if unknown *)
}

val explain : top:int -> Profile.t -> Window.t -> surprise list
(** The [top] most surprising positions of a window, most surprising
    first — what the security administrator looks at when an alarm
    fires. Symbols outside the alphabet have infinite surprisal and
    always rank first. *)
