(** Discrete hidden Markov models.

    Covers the three classic problems the paper relies on (Sec. II):
    evaluation (scaled forward algorithm), decoding (Viterbi) and
    learning (Baum-Welch), for observation sequences over a finite
    symbol alphabet. Replaces the Jahmm library of the paper's
    implementation. *)

type t = {
  n : int;  (** number of hidden states *)
  m : int;  (** number of observation symbols *)
  a : Mlkit.Matrix.t;  (** [n x n] transition probabilities, rows sum to 1 *)
  b : Mlkit.Matrix.t;  (** [n x m] emission probabilities, rows sum to 1 *)
  pi : float array;  (** initial state distribution *)
}

val create : a:Mlkit.Matrix.t -> b:Mlkit.Matrix.t -> pi:float array -> t
(** @raise Invalid_argument on inconsistent dimensions, negative or
    non-finite entries, or rows that do not sum to 1 (within
    tolerance). *)

val random : rng:Mlkit.Rng.t -> n:int -> m:int -> t
(** Random initialization — the Rand-HMM baseline of Sec. V-D. *)

val uniform : n:int -> m:int -> t

val validate : t -> (unit, string) result
(** [Error] unless the dimensions agree and every row of A and B and
    [pi] is finite, non-negative (to within 1e-12) and sums to 1 (to
    within 1e-6). A NaN entry fails. *)

val log_likelihood : t -> int array -> float
(** [log P(O | λ)] by the scaled forward algorithm; [neg_infinity] when
    the sequence is impossible, or when a scaling factor is NaN (a
    model with a non-finite entry). Observations outside [\[0, m)]
    raise [Invalid_argument]. The row-at-a-time reference that the
    compiled pass is held to: test_hmm's "Compiled.log_likelihood =
    log_likelihood, bit for bit" compares the two. *)

val per_symbol_score : t -> int array -> float
(** [log_likelihood / length]: the detection score compared against the
    threshold. [neg_infinity] on impossible sequences; 0.0 on the empty
    sequence. *)

val per_symbol_scores : t -> int array array -> float array
(** [per_symbol_scores t windows] is [Array.map (per_symbol_score t)
    windows], bit for bit: the scores of a {!Pass} over [windows]
    alone, which is released before the return.
    @raise Invalid_argument on an observation outside [\[0, m)], or
    when A, B or [pi] does not have the size [n] and [m] give it,
    before any thread starts. *)

module Compiled : sig
  (** Compiled evaluation for the detection hot path (Sec. IV-D) and
      the surprisals behind [Scoring.explain]: the same scaled forward
      pass over the model's own flat transition table, with the
      emission table transposed (one observation's column contiguous)
      and the forward rows preallocated, so steady-state scoring
      allocates nothing. Each transition step runs in a C kernel whose
      SIMD lanes run across the next forward row's elements, and every
      element still adds its terms one at a time in increasing state
      order, so scores are bit-for-bit equal to {!log_likelihood} / {!per_symbol_score},
      which stay the row-at-a-time reference. That needs finite table
      entries, which {!validate} enforces. A compiled scorer is not
      thread-safe (it owns its scratch rows) — use one per domain. *)

  type model := t

  type t

  val of_model : model -> t
  val model : t -> model

  val log_likelihood_sub : t -> int array -> pos:int -> len:int -> float
  (** [log P(obs.(pos..pos+len-1) | λ)], allocation-free; bit-for-bit
      equal to {!Hmm.log_likelihood} on the slice. @raise
      Invalid_argument on an out-of-bounds slice or an observation
      outside [\[0, m)]. *)

  val per_symbol_score_sub : t -> int array -> pos:int -> len:int -> float

  val step_surprisals : t -> int array -> float array
  (** Bit-for-bit {!Hmm.step_surprisals} from one compiled forward
      pass: the per-step [-log c_t], and [infinity] from the first
      impossible step on. Allocates only the result.
      @raise Invalid_argument on an observation outside [\[0, m)]. *)

  val log_likelihood : t -> int array -> float
  val per_symbol_score : t -> int array -> float
end

val sample : rng:Mlkit.Rng.t -> t -> int -> int array
(** Generate an observation sequence of the given length from the
    model's distribution. *)

val step_surprisals : t -> int array -> float array
(** Per-step negative log-likelihood contributions:
    [step_surprisals t o].(i) is [-log P(o_i | o_0..o_{i-1})] — large
    values mark the surprising positions of an anomalous sequence.
    Impossible steps yield [infinity]. *)

val forward : t -> int array -> float array array * float array
(** Scaled forward variables and per-step scaling factors [c.(t)];
    [log P(O|λ) = -Σ log c.(t)]. Exposed for tests. *)

val backward : t -> int array -> float array -> float array array
(** Scaled backward variables using the forward scaling factors.
    A reference, not on the training path (the E-step runs in C):
    test_hmm's "baum_welch_step = row-at-a-time reference, bit for bit"
    builds its textbook E-step from {!forward} and this function, and
    "forward/backward consistency" checks the two close the recursion. *)

val viterbi : t -> int array -> int array * float
(** Most likely state path and its log probability. A reference, not
    on the detection path: the textbook decoder, checked against
    brute-force enumeration by test_hmm's "viterbi = brute force". *)

val baum_welch_step : t -> (int array * float) list -> t * float
(** One EM iteration over weighted sequences (weight = multiplicity of
    the deduplicated window). Returns the re-estimated model and the
    {e previous} model's total weighted log-likelihood. Emission and
    transition rows are floored by a small epsilon and renormalized so
    unseen events keep non-zero mass. Sequences impossible under the
    current model are skipped; every sequence is still range-checked.
    It is {!Pass.step} on a pass over the sequences alone, released
    before the return.
    @raise Invalid_argument on an observation outside [\[0, m)], or
    when A, B or [pi] does not have the size [n] and [m] give it. *)

(** Training's work on one model, on one table: the scaled forward row
    of every distinct prefix of a set of windows, computed once each,
    and, read off it, every window's per-symbol score and, on request,
    the E-step of one Baum-Welch iteration over the weighted ones.
    [Profile.train] builds one table per model: its convergence score,
    its training windows' scores for the threshold, and the step to the
    next model all come from it.

    A forward row depends only on the prefix it ends, and each table
    row takes the operations one step of {!Compiled.per_symbol_score}
    takes, so reading a window's rows off the table changes no bit:
    the scores are bit for bit {!per_symbol_score}, and the step bit
    for bit the textbook E-step over {!forward} and {!backward}. A scale
    that is not positive (or NaN) makes the prefix impossible: a window
    through it scores [neg_infinity] and adds nothing to the step.

    The table and the step run in C on as many threads as the caller's
    CPU affinity mask allows: POSIX threads created and joined inside
    the call, never OCaml domains, so the process can still
    [Unix.fork] afterwards. The table's threads claim whole subtrees of
    the prefix tree, and each row is written once from rows already
    final. The step takes the windows in blocks of at most about 1 MiB
    of scratch; in each block the threads first split the windows
    (backward pass, γ, ξ normaliser), then the state rows of the
    accumulators, so every accumulator element takes its terms in
    window order, then step order, and the log-likelihood is summed in
    window order. No bit depends on the thread count. The calling
    domain holds the runtime lock throughout, so other domains wait for
    the call before a stop-the-world collection.

    The table lives outside the OCaml heap, in one anonymous mapping
    that every model's build reuses and {!release} unmaps, so its pages
    go back to the OS at once (the handle's finaliser releases a pass
    never released). Banking's training uses about 3.3 MB of it. A pass
    is not thread-safe. *)
module Pass : sig
  type model := t

  type t

  val create : model -> weighted:(int array * float) array -> extra:int array array -> t
  (** [create t ~weighted ~extra] lays out the [weighted] windows, which
      {!step} steps over, and the [extra] ones, which are only scored,
      numbers their distinct prefixes (a window in both is one path of
      the prefix tree), and builds [t]'s table.
      @raise Invalid_argument on an observation outside [\[0, m)], or
      when A, B or [pi] does not have the size [n] and [m] give it,
      before any thread starts. *)

  val rebuild : t -> model -> unit
  (** The table of another model of the same size, in place: the
      windows' layout and the mapping are kept.
      @raise Invalid_argument when the model's [n] or [m] differs from
      the pass's, or its tables do not have the size they give them,
      or once the pass is released. *)

  val scores : t -> float array
  (** The per-symbol score of every window under the pass's current
      model, the weighted ones first, in the order {!create} was given
      them. A {!rebuild} makes a new array. *)

  val step : t -> model * float
  (** {!baum_welch_step} of the pass's current model over its weighted
      windows: the re-estimated model and the current model's total
      weighted log-likelihood.
      @raise Invalid_argument once the pass is released. *)

  val release : t -> unit
  (** Unmaps the table; {!scores} stays readable. Releasing twice does
      nothing. *)
end

val fit : max_iterations:int -> t -> (int array * float) list -> t * float list
(** Iterate [baum_welch_step] until the total log-likelihood improves by
    less than 1e-4 per unit weight, or for [max_iterations] steps.
    Returns the trained model and the log-likelihood trajectory. *)
