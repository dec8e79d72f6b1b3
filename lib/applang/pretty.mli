(** Pretty-printer for AppLang.

    The output re-parses to an equal AST (round-trip property, tested
    with qcheck), which lets the attack framework dump mutated programs
    for inspection. *)

val binop_to_string : Ast.binop -> string
val expr_to_string : Ast.expr -> string
val program_to_string : Ast.program -> string
