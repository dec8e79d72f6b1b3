(** Run-level auditing: file labeling, one of the mitigations of
    Sec. VII.

    The HMM detector sees call {e sequences}; it cannot see targeted
    data staged into a file and then exfiltrated by a shell command.
    The interpreter marks files that received tainted data, and any
    [system] command mentioning a labeled file is reported here.

    Queries are checked elsewhere: the query-signature axis
    ({!Adprom_qsig.Engine}, run by the daemon under [--qsig]) is the
    one query checker. This module only trains its profile
    ({!learn}). *)

type finding =
  | Tainted_file_command of { path : string; command : string }
      (** a [system] command touching a file that holds targeted data *)

val learn : Runtime.Interp.outcome list -> Adprom_qsig.Profile.t
(** Query-signature profile from the training runs' outcomes:
    prepare-time texts register their shape, executed queries train the
    slot constraints and cardinality bands. *)

val audit : Runtime.Interp.outcome -> finding list
(** Tainted-file findings for one monitored run. *)

val finding_to_string : finding -> string
