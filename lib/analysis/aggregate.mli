(** Aggregation of per-function CTMs into the program CTM (pCTM),
    Sec. IV-C3.

    Callee matrices are in-lined into their callers leaf-first (reverse
    topological order of the call graph). The four cases of the paper
    are implemented; for the internal-pair case the callee mass is
    scaled by the total entry mass [Σ_i P(m_i, f)] — the form under
    which the paper's three stated pCTM invariants actually hold (see
    DESIGN.md on the equation (8)/(9) typo). Recursive calls are
    approximated by one unrolling: the cyclic [Func] symbols are
    eliminated by flow-preserving pass-through before in-lining. *)

val program_ctm : (string * Ctm.t) list -> Callgraph.t -> entry:string -> Ctm.t
(** Aggregate all functions reachable from [entry] (typically
    ["main"]); the result mentions only [Lib] symbols plus
    [Entry]/[Exit].
    @raise Invalid_argument if [entry] has no CTM. *)
