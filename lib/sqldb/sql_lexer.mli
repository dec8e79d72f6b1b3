(** Lexer for the SQL dialect.

    Keywords are case-insensitive. String literals use single quotes
    with [''] as the escaped quote, which is what makes the classic
    tautology injection [1' OR '1'='1] syntactically meaningful when a
    client concatenates it into a quoted literal. *)

type token =
  | T_int of int
  | T_str of string
  | T_ident of string  (** identifier, lower-cased *)
  | T_kw of string  (** keyword, upper-cased: SELECT, FROM, ... *)
  | T_star
  | T_comma
  | T_lparen
  | T_rparen
  | T_eq | T_ne | T_lt | T_le | T_gt | T_ge
  | T_param  (** [?] *)
  | T_semi
  | T_eof

val tokenize : string -> (token list, string) result
(** [Error msg] on a lexical error: an unterminated string, a stray
    character, or an integer literal outside [0, max_int]. *)
