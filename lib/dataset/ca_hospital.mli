(** App_h of the CA-dataset: a mini hospital client application over
    the PostgreSQL-style API (Table III). Menu-driven: registration,
    record lookup, appointments, diagnosis updates, discharge and
    per-department reports, with an audit log written to a file. *)

val source : string

val app : unit -> Adprom.Pipeline.app
(** The application with 63 generated test cases, the paper's count. *)
