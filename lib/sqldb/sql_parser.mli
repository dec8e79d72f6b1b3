(** Recursive-descent parser for the SQL dialect. *)

val parse : string -> (Sql_ast.statement, string) result
(** Parse a single statement; a trailing [;] is allowed.
    [?] placeholders are numbered left to right starting at 0.
    [Error msg] on a lexical or syntax error. *)
