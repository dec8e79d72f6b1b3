(** The static verifier behind [adprom vet].

    Sanity checks over the static-analysis artifacts before a program's
    profile is trusted to monitor it. Two halves:

    {ul
    {- {b Program checks} ({!check_program}, per function):
       unreachable blocks (dead code), variables possibly used before
       initialization, calls to functions that are neither user-defined
       nor in {!Applang.Libspec}, loops with no statically reachable
       exit, and functions never called from the entry point.}
    {- {b Profile coverage} ({!stage}'s facts, {!check_coverage}): the
       statically reachable observable symbols and (caller, call) pairs,
       cross-checked against a trained profile's alphabet and known
       pairs. A profile mentioning a symbol or pair the program cannot
       produce is corrupt or was trained for another program ([Error]);
       a reachable symbol or pair the profile never saw is a training
       gap that will flag legitimate behaviour ([Warning]).}}

    Defect classes are {!Diag.t} codes: [dead-code],
    [use-before-init], [undefined-callee], [no-exit-loop], [no-entry],
    [unreachable-function], [sql-injectable-site],
    [profile-symbol-unreachable], [profile-pair-impossible],
    [uncovered-symbol], [uncovered-pair], [profile-ngram-impossible],
    [qsig-impossible-signature], [qsig-uncovered-signature],
    [leak-sensitive-column], [leak-unbounded-cardinality],
    [leak-unknown-provenance].

    Severity levels and their CLI/serving semantics:

    {ul
    {- {!Diag.Error} — the profile cannot belong to this program
       (unreachable symbols, impossible pairs, statically impossible
       trained query signatures). [adprom vet] exits non-zero;
       [Profile_check.apply Enforce] refuses to serve.}
    {- {!Diag.Warning} — a likely defect or training gap (dead code,
       injectable SQL call sites, uncovered symbols/pairs). [adprom vet]
       exits zero unless [--strict] promotes warnings to failing.}
    {- {!Diag.Hint} — advisory coverage notes, today the
       emittable-but-untrained query signatures
       ([qsig-uncovered-signature]). Hints never fail, not even under
       [--strict]: a program typically {e can} emit more signatures
       than any finite training run exercises.}}

    The {!stage} reads the {!Front} end's labelled CFGs: coverage
    compares labeled symbols. *)

type facts = {
  symbols : Symbol.Set.t;
      (** observable library-call symbols of reachable call sites in
          functions reachable from the entry *)
  pairs : (string * Symbol.t) list;
      (** statically possible (enclosing function, observable call)
          pairs, sorted *)
}

type stage = {
  entry : string;
  cfgs : (string * Cfg.t) list;  (** labelled, as built: checks and facts *)
  pruned : (string * Cfg.t) list;  (** their {!Prune}d view *)
  callgraph : Callgraph.t;  (** over [cfgs]: the automaton's *)
  live : Set.Make(String).t;  (** {!Callgraph.reachable_in} [callgraph] from [entry] *)
  dom : Cfg.t -> Dominator.t;  (** each tree computed on its first lookup *)
  facts : facts;  (** with [entry] absent, every function is a root *)
  static_queries : Qstatic.result Lazy.t;  (** the one {!Qstatic.infer}, on [pruned] *)
}
(** What the program checks, the coverage cross-check, the automaton,
    the query gate and the leakage summary read: built once per daemon
    start or vetted file. *)

val stage : ?entry:string -> Front.t -> stage
(** [entry] defaults to ["main"]. *)

val recordable : facts -> facts
(** The facts widened to what the runtime can record: the run-time
    taint check decides whether a DB-output call is labelled, so each
    labelled site also contributes its bare symbol. *)

val check_program : stage -> Diag.t list
(** All per-function checks on [cfgs] plus whole-program ones: a
    missing entry function, functions unreachable from it, and
    [sql-injectable-site] warnings from [static_queries]. Sorted and
    deduped: per-instance analyses that rediscover the same defect at
    the same (position, code) collapse to one diagnostic with the count
    in the message. *)

val check_qsig_coverage : stage -> trained_signatures:string list -> Diag.t list
(** The query-axis cross-check on its own: trained signatures outside a
    [complete] static set are [qsig-impossible-signature] errors (the
    program provably cannot emit them, so the profile was trained on
    other traffic); statically emittable signatures absent from the
    trained set are [qsig-uncovered-signature] hints. An incomplete
    static set never produces errors. *)

val leakage : ?schema:Applang.Libspec.Schema.t -> stage -> Leakage.result
(** {!Leakage.analyze} of the stage's pruned CFGs and query inference. *)

val check_leakage :
  policy:Applang.Libspec.Sensitivity.t -> summary:Leakage.result -> Diag.t list
(** Judge a {!Leakage} summary under a column-sensitivity policy:
    [leak-sensitive-column] ([Error]) when a secret column can reach an
    output sink, [leak-unbounded-cardinality] ([Warning]) when an
    internal column flows with no cardinality bound, and
    [leak-unknown-provenance] ([Hint]) for data the analysis could not
    resolve to declared columns (open query sites, undeclared column
    lists). Witness paths are embedded in messages and exposed via
    {!Diag.t.related}. Deduped and sorted. *)

val check_coverage :
  ?automaton:(Symbol.t list -> bool) * Symbol.t list list ->
  facts ->
  alphabet:Symbol.t list ->
  known_pairs:(string * Symbol.t) list ->
  Diag.t list
(** Cross-check a profile view against the static facts. The caller is
    responsible for projecting both sides into the profile's label view
    (see [Adprom.Profile_check]). Entry/Exit symbols are ignored. The
    error checks accept either {!recordable} variant of a labelled
    site; the warnings read the static view.

    With [automaton] — factor membership in the call-sequence automaton
    (e.g. [Seqauto.accepts auto]) and the call sequences the trained
    model gives real support — the pair check generalizes to n-grams: a
    supported sequence outside the automaton's language is a [Warning]
    ([profile-ngram-impossible]) — the model puts real weight on
    behaviour the program cannot run. Warning and not error, because
    n-gram support is inferred from the trained weights (smoothing can
    lift never-seen sequences above the support threshold), unlike the
    directly-observed alphabet and pair facts. *)
