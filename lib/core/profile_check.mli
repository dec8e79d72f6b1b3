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

val automaton : Profile.t -> Analysis.Vet.stage -> Analysis.Seqauto.t
(** Build the program's call-sequence automaton in the profile's label
    view, on the stage's pruned CFGs and call graph from its entry — the
    form {!Scoring.set_static_dfa} expects and {!apply}'s n-gram
    cross-check consumes. *)

val check : ?automaton:Analysis.Seqauto.t -> Analysis.Vet.stage -> Profile.t -> Analysis.Diag.t list
(** Program checks ({!Analysis.Vet.check_program} of the stage) plus
    the profile-coverage cross-check ({!Analysis.Vet.check_coverage} of
    the stage's facts under the profile's label view), sorted with
    {!Analysis.Diag.compare}. With [automaton], also check the trained
    model's supported bigrams against the automaton's language (one
    [profile-ngram-impossible] finding per profile). *)

val apply :
  policy -> ?automaton:Analysis.Seqauto.t -> Analysis.Vet.stage -> Profile.t -> Analysis.Diag.t list
(** Run {!check} under the policy. [Off] does nothing and returns [].
    [Warn] returns the diagnostics for the caller to log. [Enforce]
    additionally @raise Invalid_argument when error-class findings
    exist, naming them. *)
