(** Minimal SARIF 2.1.0 emission for {!Diag} lists ([adprom vet
    --format sarif]).

    One run per report: rules are the distinct diagnostic codes,
    severities map onto SARIF levels ([Error] → ["error"], [Warning] →
    ["warning"], [Hint] → ["note"]), the [func#block] anchor becomes a
    logical location on the vetted file, and witness steps
    ({!Diag.t.related}) become [relatedLocations]. Emission only. *)

val report : (string * Diag.t list) list -> string
(** [report results] renders one SARIF document for a batch of vetted
    files (file path, its diagnostics). *)
