(** App_b of the CA-dataset: a small banking system over the
    MySQL-style API (Table III). Deposit/withdraw/transfer/statement
    plus a client lookup that concatenates user input into its query —
    the vulnerability exploited by the tautology injection of Attack 5
    (Fig. 2 of the paper). *)

val source : string

val app : unit -> Adprom.Pipeline.app
(** 73 test cases. *)

val test_cases : count:int -> seed:int -> Runtime.Testcase.t list

val tautology : string
(** The malicious input [1' OR '1'='1]. *)

val poison_lookup : Runtime.Testcase.t -> Runtime.Testcase.t
(** Rewrite a test case into a lookup driven by {!tautology}. *)
