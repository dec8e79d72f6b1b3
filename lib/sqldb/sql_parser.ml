open Sql_lexer

exception Parse_error of string

type state = { mutable toks : token list; mutable next_param : int }

let peek st = match st.toks with t :: _ -> t | [] -> T_eof
let advance st = match st.toks with _ :: rest -> st.toks <- rest | [] -> ()

let fail msg = raise (Parse_error msg)

let expect st tok msg = if peek st = tok then advance st else fail msg

let expect_kw st kw = expect st (T_kw kw) (Printf.sprintf "expected %s" kw)

let expect_ident st msg =
  match peek st with
  | T_ident name ->
      advance st;
      name
  | _ -> fail msg

let fresh_param st =
  let i = st.next_param in
  st.next_param <- i + 1;
  i

let parse_literal st =
  match peek st with
  | T_int n -> advance st; Sql_ast.L_int n
  | T_str s -> advance st; Sql_ast.L_str s
  | T_kw "NULL" -> advance st; Sql_ast.L_null
  | T_param -> advance st; Sql_ast.L_param (fresh_param st)
  | _ -> fail "expected a literal"

let parse_operand st =
  match peek st with
  | T_ident name ->
      advance st;
      Sql_ast.Col name
  | _ -> Sql_ast.Lit (parse_literal st)

let cmp_of_token = function
  | T_eq -> Some Sql_ast.Ceq
  | T_ne -> Some Sql_ast.Cne
  | T_lt -> Some Sql_ast.Clt
  | T_le -> Some Sql_ast.Cle
  | T_gt -> Some Sql_ast.Cgt
  | T_ge -> Some Sql_ast.Cge
  | _ -> None

let rec parse_where_expr st = parse_or st

and parse_or st =
  let lhs = parse_and st in
  if peek st = T_kw "OR" then begin
    advance st;
    Sql_ast.Or (lhs, parse_or st)
  end
  else lhs

and parse_and st =
  let lhs = parse_not st in
  if peek st = T_kw "AND" then begin
    advance st;
    Sql_ast.And (lhs, parse_and st)
  end
  else lhs

and parse_not st =
  if peek st = T_kw "NOT" then begin
    advance st;
    Sql_ast.Not (parse_not st)
  end
  else parse_predicate st

and parse_predicate st =
  if peek st = T_lparen then begin
    advance st;
    let e = parse_where_expr st in
    expect st T_rparen "expected ')'";
    e
  end
  else
    let lhs = parse_operand st in
    match peek st with
    | T_kw "LIKE" ->
        advance st;
        Sql_ast.Like (lhs, parse_operand st)
    | T_kw "IN" ->
        advance st;
        Sql_ast.In (lhs, parse_in_list st)
    | T_kw "NOT" ->
        advance st;
        expect_kw st "IN";
        Sql_ast.Not (Sql_ast.In (lhs, parse_in_list st))
    | tok -> (
        match cmp_of_token tok with
        | Some cmp ->
            advance st;
            Sql_ast.Cmp (cmp, lhs, parse_operand st)
        | None -> fail "expected a comparison operator")

and parse_in_list st =
  expect st T_lparen "expected '(' after IN";
  let rec loop acc =
    let l = parse_literal st in
    if peek st = T_comma then begin
      advance st;
      loop (l :: acc)
    end
    else begin
      expect st T_rparen "expected ')' after IN list";
      List.rev (l :: acc)
    end
  in
  loop []

let parse_opt_where st =
  if peek st = T_kw "WHERE" then begin
    advance st;
    Some (parse_where_expr st)
  end
  else None

let parse_ident_list st =
  let rec loop acc =
    let name = expect_ident st "expected a column name" in
    if peek st = T_comma then begin
      advance st;
      loop (name :: acc)
    end
    else List.rev (name :: acc)
  in
  loop []

let parse_select st =
  advance st;
  let projection =
    match peek st with
    | T_star ->
        advance st;
        Sql_ast.Star
    | T_kw "COUNT" ->
        advance st;
        expect st T_lparen "expected '(' after COUNT";
        expect st T_star "expected '*' in COUNT(*)";
        expect st T_rparen "expected ')' after COUNT(*";
        Sql_ast.Count_star
    | T_kw (("SUM" | "AVG" | "MIN" | "MAX") as fn) ->
        advance st;
        expect st T_lparen "expected '(' after aggregate";
        let column = expect_ident st "expected a column in aggregate" in
        expect st T_rparen "expected ')' after aggregate";
        let agg =
          match fn with
          | "SUM" -> Sql_ast.Sum
          | "AVG" -> Sql_ast.Avg
          | "MIN" -> Sql_ast.Min_agg
          | _ -> Sql_ast.Max_agg
        in
        Sql_ast.Aggregate (agg, column)
    | _ -> Sql_ast.Columns (parse_ident_list st)
  in
  expect_kw st "FROM";
  let table = expect_ident st "expected a table name" in
  let where = parse_opt_where st in
  let order_by =
    if peek st = T_kw "ORDER" then begin
      advance st;
      expect_kw st "BY";
      let column = expect_ident st "expected a column in ORDER BY" in
      let dir =
        match peek st with
        | T_kw "DESC" -> advance st; Sql_ast.Desc
        | T_kw "ASC" -> advance st; Sql_ast.Asc
        | _ -> Sql_ast.Asc
      in
      Some (column, dir)
    end
    else None
  in
  let limit =
    if peek st = T_kw "LIMIT" then begin
      advance st;
      match peek st with
      | T_int n ->
          advance st;
          Some n
      | _ -> fail "expected an integer after LIMIT"
    end
    else None
  in
  Sql_ast.Select { projection; table; where; order_by; limit }

let parse_insert st =
  advance st;
  expect_kw st "INTO";
  let table = expect_ident st "expected a table name" in
  let columns =
    if peek st = T_lparen then begin
      advance st;
      let cols = parse_ident_list st in
      expect st T_rparen "expected ')'";
      Some cols
    end
    else None
  in
  expect_kw st "VALUES";
  let parse_tuple () =
    expect st T_lparen "expected '('";
    let rec loop acc =
      let l = parse_literal st in
      if peek st = T_comma then begin
        advance st;
        loop (l :: acc)
      end
      else begin
        expect st T_rparen "expected ')'";
        List.rev (l :: acc)
      end
    in
    loop []
  in
  let rec tuples acc =
    let t = parse_tuple () in
    if peek st = T_comma then begin
      advance st;
      tuples (t :: acc)
    end
    else List.rev (t :: acc)
  in
  Sql_ast.Insert { table; columns; values = tuples [] }

let parse_update st =
  advance st;
  let table = expect_ident st "expected a table name" in
  expect_kw st "SET";
  let rec sets acc =
    let column = expect_ident st "expected a column name" in
    expect st T_eq "expected '='";
    let lit = parse_literal st in
    if peek st = T_comma then begin
      advance st;
      sets ((column, lit) :: acc)
    end
    else List.rev ((column, lit) :: acc)
  in
  let sets = sets [] in
  Sql_ast.Update { table; sets; where = parse_opt_where st }

let parse_delete st =
  advance st;
  expect_kw st "FROM";
  let table = expect_ident st "expected a table name" in
  Sql_ast.Delete { table; where = parse_opt_where st }

let parse_create st =
  advance st;
  expect_kw st "TABLE";
  let table = expect_ident st "expected a table name" in
  expect st T_lparen "expected '('";
  let columns = parse_ident_list st in
  expect st T_rparen "expected ')'";
  Sql_ast.Create { table; columns }

let parse_statement st =
  let stmt =
    match peek st with
    | T_kw "SELECT" -> parse_select st
    | T_kw "INSERT" -> parse_insert st
    | T_kw "UPDATE" -> parse_update st
    | T_kw "DELETE" -> parse_delete st
    | T_kw "CREATE" -> parse_create st
    | _ -> fail "expected SELECT, INSERT, UPDATE, DELETE or CREATE"
  in
  if peek st = T_semi then advance st;
  (match peek st with T_eof -> () | _ -> fail "trailing tokens after statement");
  stmt

let parse src =
  match Sql_lexer.tokenize src with
  | Error msg -> Error msg
  | Ok toks -> (
      try Ok (parse_statement { toks; next_param = 0 })
      with Parse_error msg -> Error msg)
