(** Complementary run-level auditing (the mitigations of Sec. VII).

    The HMM detector sees call {e sequences}; leakage channels it
    cannot see are covered here:

    - queries whose structure changed while the call sequence did not
      (query-signature profiles, {!Adprom_qsig.Profile});
    - queries that keep a trained structure but drift in their literals,
      widen their WHERE clause toward a tautology, or return far more
      rows than training ever saw (the constraint-aware query axis,
      {!Adprom_qsig});
    - targeted data staged into a file and then exfiltrated by a shell
      command (file labeling: the interpreter marks files that received
      tainted data, and any [system] command mentioning a labeled file
      is reported). *)

type finding =
  | Unknown_query_signature of string
      (** a query signature never seen in training *)
  | Query_anomaly of { sql : string; detail : string }
      (** a known-shape query violating its trained constraints:
          out-of-band literal, widened predicate, cardinality blowup *)
  | Tainted_file_command of { path : string; command : string }
      (** a [system] command touching a file that holds targeted data *)

val learn : Runtime.Interp.outcome list -> Adprom_qsig.Profile.t
(** Query-signature profile from the training runs' outcomes:
    prepare-time texts register their shape, executed queries train the
    slot constraints and cardinality bands. *)

val unknown_in_run : Adprom_qsig.Profile.t -> string list -> string list
(** Signatures of the run's queries not in the profile, deduplicated,
    in first-appearance order. Unparseable texts share one
    ["<malformed>"] bucket, which is known when training saw malformed
    text too. *)

val audit : qsig:Adprom_qsig.Profile.t -> Runtime.Interp.outcome -> finding list
(** Findings for one monitored run, under the [Strict] policy. *)

val finding_to_string : finding -> string
