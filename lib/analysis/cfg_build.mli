(** CFG construction from AppLang ASTs.

    Statements are decomposed so that every call occupies its own node
    (in evaluation order), loop back edges are redirected to the loop
    exit for the static phase, and every [Call] sub-expression is
    registered in the shared {!Cfg.Sites} table under the id of its
    node — the "block id" used both by the DB-output labels
    ([printf_Q<bid>]) and by the run-time collector. *)

val build_program : Applang.Ast.program -> (string * Cfg.t) list * Cfg.Sites.sites
(** One CFG per function, in program order, sharing a block-id counter
    and a site table. *)
