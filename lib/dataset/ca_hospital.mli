(** App_h of the CA-dataset: a mini hospital client application over
    the PostgreSQL-style API (Table III). Menu-driven: registration,
    record lookup, appointments, diagnosis updates, discharge and
    per-department reports, with an audit log written to a file. *)

val source : string

val app : ?cases:int -> unit -> Adprom.Pipeline.app
(** The application with [cases] generated test cases (default 63, the
    paper's count). *)
