(** Vetting a profile against the program it claims to model.

    The serving layer loads a trained {!Profile.t} and a program and
    must decide whether to trust the pair. This module runs the
    {!Analysis.Vet} program checks plus the profile-coverage
    cross-check, projected into the profile's label view
    ([use_labels = false] strips DB-output labels from the static facts
    the same way training stripped them from the windows).

    Error-class findings ([undefined-callee],
    [profile-symbol-unreachable], [profile-pair-impossible]) mean the
    profile cannot have been trained on this program (or the program
    changed underneath it); warning-class findings are training gaps or
    latent program defects that merit logging but not refusal. *)

type policy =
  | Off  (** skip vetting entirely *)
  | Warn  (** report diagnostics, serve anyway *)
  | Enforce  (** refuse to serve when any error-class finding exists *)

val automaton : Profile.t -> Analysis.Analyzer.t -> Analysis.Seqauto.t
(** Build the program's call-sequence automaton in the profile's label
    view, on the pruned CFGs from [main] — the form
    {!Scoring.set_static_dfa} expects and {!apply}'s n-gram cross-check
    consumes. *)

val check : entry:string -> Profile.t -> Analysis.Analyzer.t -> Analysis.Diag.t list
(** Program checks plus the profile-coverage cross-check
    ({!Analysis.Vet.check_coverage} under the profile's label view),
    sorted with {!Analysis.Diag.compare}. *)

val apply :
  policy ->
  ?automaton:Analysis.Seqauto.t ->
  facts:Analysis.Vet.facts ->
  Profile.t ->
  Analysis.Analyzer.t ->
  Analysis.Diag.t list
(** Run {!check} under the policy from [facts]' entry, reusing [facts]
    (the program's {!Analysis.Vet.facts}, which the caller computes
    once and whose pairs also feed {!Scoring.set_static_pairs}); with
    [automaton], also check the trained model's supported bigrams
    against the automaton's language ([profile-ngram-impossible]).
    [Off] does nothing and returns []. [Warn] returns the diagnostics
    for the caller to log. [Enforce] additionally @raise
    Invalid_argument when error-class findings exist, naming them. *)
