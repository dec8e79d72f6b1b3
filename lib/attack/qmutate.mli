(** Query-mutation scenario generator: the insider/MITM workload family
    the call-sequence HMM is blind to. Every mutation keeps the
    program's library-call sequence intact and rewrites only the SQL on
    the wire (the {!Scenario.Mitm} vector), which is exactly the case
    the paper's Sec. VII mitigation note concedes to the query axis.

    Three mutation kinds generalize Attack 5 into a benchable family:

    - {!Tautology_widening}: [WHERE p] becomes [WHERE p OR 'k'='k'] —
      the Fig. 2 injection shape, widening selectivity to every row;
    - {!Cardinality_blowup}: WHERE and LIMIT dropped from reads — the
      leak channel itself, a full-table result;
    - {!Literal_out_of_band}: structure preserved, literals pushed far
      outside their trained ranges/shapes (e.g. a reporting threshold
      of 200 turned into 300306). *)

type kind = Tautology_widening | Cardinality_blowup | Literal_out_of_band

val kind_to_string : kind -> string
val all_kinds : kind list

val scenario : kind -> Scenario.t
(** A MITM scenario applying the mutation to all wire traffic: the
    first of {!family}'s variants of [kind]. *)

val family : variants:int -> Scenario.t list
(** The benchable family: [variants] scenarios of each kind,
    [3 * variants] in total. *)

val run_logs :
  Scenario.t ->
  Adprom.Pipeline.app ->
  (Runtime.Testcase.t * (string * int) list) list
(** Execute every test case of the scenario's malicious variant and
    return the per-case executed-query logs — the query-axis input. *)
