(** The static verifier behind [adprom vet].

    Sanity checks over the static-analysis artifacts before a program's
    profile is trusted to monitor it. Two halves:

    {ul
    {- {b Program checks} ({!check_program}, per function):
       unreachable blocks (dead code), variables possibly used before
       initialization, calls to functions that are neither user-defined
       nor in {!Applang.Libspec}, loops with no statically reachable
       exit, and functions never called from the entry point.}
    {- {b Profile coverage} ({!facts}, {!check_coverage}): the
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

    Run {!Taint.analyze} on the CFGs {e before} {!facts} so DB-output
    labels are in place — coverage compares labeled symbols. *)

type facts = {
  entry : string;
  symbols : Symbol.Set.t;
      (** observable library-call symbols of reachable call sites in
          functions reachable from [entry] *)
  pairs : (string * Symbol.t) list;
      (** statically possible (enclosing function, observable call)
          pairs, sorted *)
}

val check_program :
  ?entry:string -> ?static_queries:Qstatic.result -> (string * Cfg.t) list -> Diag.t list
(** All per-function checks plus whole-program ones: a missing [entry]
    function (default ["main"]), functions unreachable from it, and
    [sql-injectable-site] warnings from the static query inference
    (computed on the given CFGs unless a precomputed [static_queries]
    result is passed). Sorted and deduped: per-instance analyses that
    rediscover the same defect at the same (position, code) collapse
    to one diagnostic with the count in the message. *)

val facts : ?entry:string -> (string * Cfg.t) list -> facts
(** The statically possible behaviour. When [entry] is absent from
    [cfgs], every function is treated as a root (conservative). *)

val check_qsig_coverage :
  static_queries:Qstatic.result -> trained_signatures:string list -> Diag.t list
(** The query-axis cross-check on its own: trained signatures outside a
    [complete] static set are [qsig-impossible-signature] errors (the
    program provably cannot emit them, so the profile was trained on
    other traffic); statically emittable signatures absent from the
    trained set are [qsig-uncovered-signature] hints. An incomplete
    static set never produces errors. *)

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
    (see [Adprom.Profile_check]). Entry/Exit symbols are ignored.

    With [automaton] — factor membership in the call-sequence automaton
    (e.g. [Seqauto.accepts auto]) and the call sequences the trained
    model gives real support — the pair check generalizes to n-grams: a
    supported sequence outside the automaton's language is a [Warning]
    ([profile-ngram-impossible]) — the model puts real weight on
    behaviour the program cannot run. Warning and not error, because
    n-gram support is inferred from the trained weights (smoothing can
    lift never-seen sequences above the support threshold), unlike the
    directly-observed alphabet and pair facts. *)
