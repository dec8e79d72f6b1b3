type token =
  | T_int of int
  | T_str of string
  | T_ident of string
  | T_kw of string
  | T_star
  | T_comma
  | T_lparen
  | T_rparen
  | T_eq | T_ne | T_lt | T_le | T_gt | T_ge
  | T_param
  | T_semi
  | T_eof

exception Lex_error of string

let keywords =
  [
    "SELECT"; "FROM"; "WHERE"; "INSERT"; "INTO"; "VALUES"; "UPDATE"; "SET";
    "DELETE"; "CREATE"; "TABLE"; "AND"; "OR"; "NOT"; "NULL"; "LIKE"; "IN"; "COUNT";
    "ORDER"; "BY"; "ASC"; "DESC"; "LIMIT"; "SUM"; "AVG"; "MIN"; "MAX";
  ]

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize_exn src =
  let n = String.length src in
  let pos = ref 0 in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let peek2 () = if !pos + 1 < n then Some src.[!pos + 1] else None in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let lex_string () =
    incr pos;
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> raise (Lex_error "unterminated string literal")
      | Some '\'' when peek2 () = Some '\'' ->
          Buffer.add_char buf '\'';
          pos := !pos + 2;
          loop ()
      | Some '\'' -> incr pos
      | Some c ->
          Buffer.add_char buf c;
          incr pos;
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  while !pos < n do
    match src.[!pos] with
    | ' ' | '\t' | '\r' | '\n' -> incr pos
    | '\'' -> emit (T_str (lex_string ()))
    | c when is_digit c ->
        let start = !pos in
        while !pos < n && is_digit src.[!pos] do
          incr pos
        done;
        let digits = String.sub src start (!pos - start) in
        (match int_of_string_opt digits with
        | Some i -> emit (T_int i)
        | None -> raise (Lex_error ("integer literal out of range: " ^ digits)))
    | c when is_ident_start c ->
        let start = !pos in
        while !pos < n && is_ident_char src.[!pos] do
          incr pos
        done;
        let word = String.sub src start (!pos - start) in
        let upper = String.uppercase_ascii word in
        if List.mem upper keywords then emit (T_kw upper)
        else emit (T_ident (String.lowercase_ascii word))
    | '*' -> emit T_star; incr pos
    | ',' -> emit T_comma; incr pos
    | '(' -> emit T_lparen; incr pos
    | ')' -> emit T_rparen; incr pos
    | ';' -> emit T_semi; incr pos
    | '?' -> emit T_param; incr pos
    | '=' -> emit T_eq; incr pos
    | '<' -> (
        match peek2 () with
        | Some '>' -> emit T_ne; pos := !pos + 2
        | Some '=' -> emit T_le; pos := !pos + 2
        | _ -> emit T_lt; incr pos)
    | '>' -> (
        match peek2 () with
        | Some '=' -> emit T_ge; pos := !pos + 2
        | _ -> emit T_gt; incr pos)
    | '!' -> (
        match peek2 () with
        | Some '=' -> emit T_ne; pos := !pos + 2
        | _ -> raise (Lex_error "expected '!='"))
    | c -> raise (Lex_error (Printf.sprintf "unexpected character '%c' in SQL" c))
  done;
  List.rev (T_eof :: !tokens)

let tokenize src = try Ok (tokenize_exn src) with Lex_error msg -> Error msg
