(** The five attacks of the detection experiment (Sec. V-C, Table V),
    instantiated against the CA-dataset applications. *)

type case = {
  label : string;  (** "Attack 1" ... "Attack 5" *)
  scenario : Attack.Scenario.t;
  app : Adprom.Pipeline.app;  (** the targeted (clean) application *)
}

val attack2 : unit -> case
(** Insert a new call in a different function to print query results
    (App_s: the stock updater starts printing the rows it touches). *)

val attack4 : unit -> case
(** Binary patching (Dyninst-style): an [fwrite] leaking the targeted
    data is injected right after a labeled output site of App_s. *)

val attack5 : unit -> case
(** Tautology SQL injection through App_b's unprepared lookup. *)

val all : unit -> case list

(** {2 The full adversary model (Sec. III)}

    Table V evaluates five attacks; the paper's adversary model lists
    more flavors (1.1-3.3). {!adversary_model} holds them all, for the
    [adversary-model] bench. *)

val attack_1_1 : unit -> case
(** Sec. III attack 1.1 / Fig. 1: a query literal's selectivity is
    widened (the banking statement loses its LIMIT), so an existing
    print loop iterates over far more records. *)

val adversary_model : unit -> (string * case) list
(** All eight flavors: 1.1-1.3, 2.1-2.2, 3.1-3.3 (2.1 is Table V's
    Attack 4, 1.2 is Attack 2, 3.1 is Attack 5). *)
