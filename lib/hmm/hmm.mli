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
    windows], bit for bit, in one C call: training's window scoring
    (the CSDS score of every round, the threshold pass,
    [Profile.extend]). The call sorts the windows lexicographically and
    walks them in that order, so each window starts from the forward
    rows of its longest common prefix with the window before it. A
    forward row depends only on the prefix it ends, and each window's
    score takes exactly the operations {!Compiled.per_symbol_score}
    does on it, so sharing changes no bit. Threads claim fixed runs of
    the sorted order, each from an empty stack of rows, so the scores
    depend on neither the thread count nor the run size. The threads
    start and join inside the call as {!baum_welch_step}'s do: one per
    CPU in the affinity mask, never an OCaml domain.
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

    The E-step runs in one C call on as many threads as the caller's
    CPU affinity mask allows (capped at the number of sequences):
    POSIX threads created and joined inside the call, never OCaml
    domains, so the process can still [Unix.fork] afterwards. The
    sequences go in blocks of at most about 1 MiB of scratch; in each
    block the threads first split the sequences (forward, backward, γ,
    ξ normaliser), then the state rows of the accumulators. Every
    accumulator element takes the same floating-point operations, in
    the same order (sequence order, then step order), as the textbook
    step over {!forward} and {!backward}, and the log-likelihood is
    summed in sequence order: the result is bit-for-bit equal to it,
    whatever the thread count. The calling domain holds the runtime
    lock throughout, so other domains wait for the step before a
    stop-the-world collection. Every observation is range-checked
    before the call.
    @raise Invalid_argument on an observation outside [\[0, m)], or
    when A, B or [pi] does not have the size [n] and [m] give it. *)

val fit : max_iterations:int -> t -> (int array * float) list -> t * float list
(** Iterate [baum_welch_step] until the total log-likelihood improves by
    less than 1e-4 per unit weight, or for [max_iterations] steps.
    Returns the trained model and the log-likelihood trajectory. *)
