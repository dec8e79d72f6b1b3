(** App_s of the CA-dataset: a supermarket management system over the
    MySQL-style API — the largest of the three client applications
    (Table III). Point-of-sale, inventory, restocking, pricing,
    supplier management and reporting. *)

val source : string

val app : unit -> Adprom.Pipeline.app
(** 36 test cases. *)
