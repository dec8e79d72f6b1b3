(** Static data-dependency analysis (the paper's DDG, Sec. IV-A/IV-C1).

    A forward may-taint dataflow over each CFG — an instance of the
    generic {!Dataflow} engine, iterated with the real back edges so
    loop-carried flows are found — combined with interprocedural
    summaries computed by {!Dataflow.Summaries} over one taint bit: a
    user function may return targeted data either unconditionally (it
    contains a source) or conditionally on specific arguments being
    tainted.

    Summaries are {e per argument}: [params.(i)] says whether taint
    entering through parameter [i] alone can reach the return value.
    This strictly refines a whole-function boolean — a call
    [f(clean, dirty)] where only parameter 0 flows to the return does
    not taint the result — so the per-argument labeling marks the same
    or fewer sinks, never more. [analyze ~per_arg:false] collapses
    every bit to the joint all-arguments answer, reproducing the coarse
    semantics (useful as a refinement baseline in tests).

    The result of [analyze] is the labeling: every output-statement call
    site whose arguments may carry DB-retrieved data gets
    [site.label <- Some block_id], turning e.g. [printf] into
    [printf_Q6] in both the CTMs and the run-time traces. *)

type summary = bool Dataflow.summary
(** [const]: returns targeted data regardless of inputs;
    [params.(i)]: returns targeted data when argument [i] is tainted. *)

type result = {
  labeled_blocks : int list;  (** block ids labeled as DB-output sites, sorted *)
  summaries : (string * summary) list;
  entry_taint : (string * bool array) list;
      (** converged {e actual} may-taint of each function's parameters,
          joined over every call site — the entry assumptions the final
          labeling pass ran under. Entry points never called internally
          keep all-false. Sorted by function name. *)
}

val analyze :
  ?per_arg:bool ->
  ?lib_taint:(string -> Applang.Libspec.taint_kind) ->
  ?label_sinks:bool ->
  (string * Cfg.t) list ->
  result
(** Runs the interprocedural fixpoint and {e mutates} the [label] field
    of sink call sites in the given CFGs. Idempotent. [per_arg]
    defaults to [true]; [false] computes whole-function boolean
    summaries (every [params] bit equal), the pre-refinement
    behavior. [lib_taint] swaps the builtin polarity: the default tracks
    DB-retrieved data ({!Applang.Libspec.taint_of}); pass
    {!Applang.Libspec.untrusted_taint_of} to track attacker-controlled
    input instead — and pass [~label_sinks:false] in that case so the
    DB-polarity labels already applied to the shared mutable sites are
    left untouched (sink labeling under the injection polarity is
    meaningless; use the summaries and [entry_taint]). *)
