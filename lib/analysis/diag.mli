(** Structured diagnostics emitted by the static verification pass.

    A diagnostic names a defect class (a stable kebab-case [code]), the
    function and code block it anchors to, and a human message. The
    {!Vet} checks produce them; [adprom vet] renders them as text or
    JSON; the serving layer counts them and can refuse a profile on
    [Error]s. *)

type severity =
  | Error  (** the profile or program is certainly wrong; serving refuses *)
  | Warning  (** likely defect; promoted to failing under [vet --strict] *)
  | Hint
      (** advisory coverage note (e.g. an emittable-but-untrained query
          signature); never fails, not even under [--strict] *)

type t = {
  severity : severity;
  code : string;  (** defect class, e.g. ["dead-code"], ["undefined-callee"] *)
  func : string;  (** enclosing function; [""] for program-level findings *)
  block : int option;  (** CFG block id the finding anchors to *)
  message : string;
  related : string list;
      (** secondary locations/steps (e.g. a def-use witness path), one
          rendered anchor per entry; SARIF maps them to
          [relatedLocations] *)
}

val make :
  ?func:string -> ?block:int -> ?related:string list -> severity -> code:string -> string -> t

val compare : t -> t -> int
(** By position — function, then block — then code, severity, message:
    a deterministic order that reads like the source. Program-level
    findings ([func = ""]) come first. *)

val errors : t list -> t list
val warnings : t list -> t list
val hints : t list -> t list

val to_string : t -> string
(** [error[undefined-callee] main#4: call to undefined function `frob`]. *)

val to_json : t -> string
(** One JSON object; [block] is [null] when absent, [related] emitted
    only when non-empty (keeping pre-existing output byte-identical). *)

val dedupe : t list -> t list
(** Collapse exact duplicates — same anchor, code, severity, message —
    to one diagnostic per site, appending [ (xN)] to the message when
    N > 1. Preserves the input order of the survivors. *)

val summary : t list -> string
(** ["2 errors, 1 warning, 3 hints"]; ["clean"] when empty. *)
