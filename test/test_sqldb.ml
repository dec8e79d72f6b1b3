(* Tests for the mini relational engine: SQL lexing/parsing, query
   evaluation, prepared statements, the LIKE matcher, and the client
   API — including the injection semantics the attacks rely on. *)

module Value = Sqldb.Value
module Lexer = Sqldb.Sql_lexer
module Parser = Sqldb.Sql_parser
module Ast = Sqldb.Sql_ast
module Engine = Sqldb.Engine
module Client = Sqldb.Client

let fresh () =
  let e = Engine.create () in
  ignore (Engine.exec e "CREATE TABLE users (id, name, age)");
  ignore (Engine.exec e "INSERT INTO users VALUES (1, 'alice', 30), (2, 'bob', 25), (3, 'carol', 35)");
  e

let rows_of = function
  | Engine.Rows r -> r.Engine.rows
  | Engine.Affected _ -> Alcotest.fail "expected rows"

let affected = function
  | Engine.Affected n -> n
  | Engine.Rows _ -> Alcotest.fail "expected an affected-count"

let parse_ok src =
  match Parser.parse src with
  | Ok stmt -> stmt
  | Error e -> Alcotest.failf "unexpected parse error on %S: %s" src e

(* --- lexer / parser ----------------------------------------------------- *)

let test_sql_lexer () =
  Alcotest.(check bool) "case-insensitive keywords and quoted strings" true
    (Lexer.tokenize "select * from T where name = 'O''Brien'"
    = Ok
        [
          Lexer.T_kw "SELECT"; Lexer.T_star; Lexer.T_kw "FROM"; Lexer.T_ident "t";
          Lexer.T_kw "WHERE"; Lexer.T_ident "name"; Lexer.T_eq; Lexer.T_str "O'Brien";
          Lexer.T_eof;
        ])

let test_sql_lexer_error () =
  List.iter
    (fun src ->
      match Lexer.tokenize src with
      | Ok _ -> Alcotest.failf "expected a lexer error on %S" src
      | Error _ -> ())
    [ "'open"; "a @ b" ]

(* An integer literal is an OCaml [int]: [max_int] still lexes, and
   anything wider is refused as a lexical error instead of escaping as
   [int_of_string]'s [Failure]. *)
let test_sql_int_literal_range () =
  let where_id src =
    match parse_ok src with
    | Ast.Select { where = Some (Ast.Cmp (_, _, Ast.Lit (Ast.L_int n))); _ } -> n
    | _ -> Alcotest.failf "unexpected shape of %S" src
  in
  Alcotest.(check int) "max_int parses" max_int
    (where_id (Printf.sprintf "SELECT a FROM t WHERE id = %d" max_int));
  List.iter
    (fun lit ->
      let src = "SELECT a FROM t WHERE id = " ^ lit in
      match Parser.parse src with
      | Ok _ -> Alcotest.failf "accepted the oversize literal in %S" src
      | Error e ->
          Alcotest.(check string) "lexer message"
            ("integer literal out of range: " ^ lit) e)
    [ Printf.sprintf "%Lu" (Int64.succ (Int64.of_int max_int));
      "99999999999999999999" ]

let test_sql_parser_select () =
  match parse_ok "SELECT id, name FROM users WHERE age >= 30 AND NOT name = 'bob' ORDER BY id DESC LIMIT 2" with
  | Ast.Select { projection = Ast.Columns [ "id"; "name" ]; table = "users";
                 where = Some _; order_by = Some ("id", Ast.Desc); limit = Some 2 } ->
      ()
  | _ -> Alcotest.fail "select shape"

let test_sql_parser_params () =
  let stmt = parse_ok "SELECT * FROM t WHERE a = ? AND b = ?" in
  Alcotest.(check int) "two placeholders" 2 (Ast.param_count stmt)

let test_sql_parser_errors () =
  let fails src =
    match Parser.parse src with
    | Ok _ -> Alcotest.failf "expected parse error on %S" src
    | Error _ -> ()
  in
  fails "SELECT FROM t";
  fails "INSERT t VALUES (1)";
  fails "DELETE t";
  fails "SELECT * FROM t WHERE";
  fails "SELECT * FROM t; SELECT"

(* --- engine ------------------------------------------------------------- *)

let test_engine_crud () =
  let e = fresh () in
  Alcotest.(check int) "three rows" 3 (Engine.row_count e "users");
  Alcotest.(check int) "update count" 1
    (affected (Engine.exec e "UPDATE users SET age = 26 WHERE name = 'bob'"));
  let r = rows_of (Engine.exec e "SELECT age FROM users WHERE name = 'bob'") in
  Alcotest.(check bool) "updated value" true (Value.equal r.(0).(0) (Value.Int 26));
  Alcotest.(check int) "delete count" 1 (affected (Engine.exec e "DELETE FROM users WHERE id = 1"));
  Alcotest.(check int) "two rows left" 2 (Engine.row_count e "users")

(* UPDATE writes rows in place, INSERT and DELETE rebuild the row
   list, CREATE adds a table: none of them may reach the template. *)
let test_engine_copy () =
  let template = fresh () in
  ignore (Engine.exec template "CREATE TABLE orders (id, user)");
  let snapshot e = rows_of (Engine.exec e "SELECT * FROM users") in
  let before = snapshot template in
  let copy = Engine.copy template in
  Alcotest.(check (list string)) "tables in the template's order" (Engine.table_names template)
    (Engine.table_names copy);
  ignore (Engine.exec copy "INSERT INTO users VALUES (4, 'dave', 40)");
  ignore (Engine.exec copy "UPDATE users SET age = 99");
  ignore (Engine.exec copy "DELETE FROM users WHERE id = 1");
  ignore (Engine.exec copy "INSERT INTO orders VALUES (1, 2)");
  ignore (Engine.exec copy "CREATE TABLE audit (id)");
  Alcotest.(check bool) "template rows untouched" true (snapshot template = before);
  Alcotest.(check int) "template orders untouched" 0 (Engine.row_count template "orders");
  Alcotest.(check bool) "template has no new table" false
    (List.mem "audit" (Engine.table_names template));
  Alcotest.(check int) "copy saw its writes" 3 (Engine.row_count copy "users");
  Alcotest.(check bool) "copy updated" true
    (Array.for_all (fun r -> Value.equal r.(2) (Value.Int 99)) (snapshot copy));
  ignore (Engine.exec template "UPDATE users SET age = 1");
  Alcotest.(check bool) "copy untouched by template writes" true
    (Array.for_all (fun r -> Value.equal r.(2) (Value.Int 99)) (snapshot copy))

let test_engine_where_semantics () =
  let e = fresh () in
  ignore (Engine.exec e "INSERT INTO users (id, name) VALUES (4, 'dave')");
  (* dave's age is NULL: comparisons with NULL never match *)
  let r = rows_of (Engine.exec e "SELECT id FROM users WHERE age > 0") in
  Alcotest.(check int) "null age filtered" 3 (Array.length r);
  let r = rows_of (Engine.exec e "SELECT id FROM users WHERE age <> 30") in
  Alcotest.(check int) "null also excluded from <>" 2 (Array.length r)

let test_engine_order_limit () =
  let e = fresh () in
  let r = rows_of (Engine.exec e "SELECT name FROM users ORDER BY age DESC LIMIT 2") in
  Alcotest.(check string) "oldest first" "carol" (Value.to_string r.(0).(0));
  Alcotest.(check int) "limit applied" 2 (Array.length r)

let test_engine_count () =
  let e = fresh () in
  let r = rows_of (Engine.exec e "SELECT COUNT(*) FROM users WHERE age < 31") in
  Alcotest.(check bool) "count" true (Value.equal r.(0).(0) (Value.Int 2))

let test_engine_aggregates () =
  let e = fresh () in
  let one sql = (rows_of (Engine.exec e sql)).(0).(0) in
  Alcotest.(check bool) "sum" true (Value.equal (one "SELECT SUM(age) FROM users") (Value.Int 90));
  Alcotest.(check bool) "avg truncates" true
    (Value.equal (one "SELECT AVG(age) FROM users") (Value.Int 30));
  Alcotest.(check bool) "min" true (Value.equal (one "SELECT MIN(age) FROM users") (Value.Int 25));
  Alcotest.(check bool) "max" true (Value.equal (one "SELECT MAX(age) FROM users") (Value.Int 35));
  Alcotest.(check bool) "filtered sum" true
    (Value.equal (one "SELECT SUM(age) FROM users WHERE age > 28") (Value.Int 65));
  Alcotest.(check bool) "empty set is NULL" true
    (Value.equal (one "SELECT SUM(age) FROM users WHERE age > 99") Value.Null);
  (* NULLs are skipped *)
  ignore (Engine.exec e "INSERT INTO users (id, name) VALUES (9, 'noage')");
  Alcotest.(check bool) "null skipped" true
    (Value.equal (one "SELECT MIN(age) FROM users") (Value.Int 25))

let test_engine_errors () =
  let e = fresh () in
  let fails sql =
    match Engine.exec e sql with
    | _ -> Alcotest.failf "expected Sql_error on %S" sql
    | exception Engine.Sql_error _ -> ()
  in
  fails "SELECT * FROM nope";
  fails "SELECT nocolumn FROM users";
  fails "INSERT INTO users VALUES (1)";
  fails "CREATE TABLE users (id)"

let test_engine_prepared () =
  let e = fresh () in
  let stmt = parse_ok "SELECT name FROM users WHERE id = ?" in
  (match Engine.execute ~params:[| Value.Int 2 |] e stmt with
  | Engine.Rows r -> Alcotest.(check string) "bound param" "bob" (Value.to_string r.Engine.rows.(0).(0))
  | Engine.Affected _ -> Alcotest.fail "expected rows");
  match Engine.execute e stmt with
  | _ -> Alcotest.fail "missing param must fail"
  | exception Engine.Sql_error _ -> ()

let test_like_match () =
  let cases =
    [
      ("%bo%", "bob", true);
      ("bo%", "bob", true);
      ("%ob", "bob", true);
      ("b_b", "bob", true);
      ("b_b", "boob", false);
      ("%", "", true);
      ("", "", true);
      ("a%z", "abcz", true);
      ("a%z", "abc", false);
      ("%a%a%", "banana", true);
    ]
  in
  List.iter
    (fun (pattern, text, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "LIKE %S %S" pattern text)
        expected
        (Engine.like_match ~pattern text))
    cases

(* The tautology injection must change result cardinality: the semantic
   heart of Attack 5 / Fig. 2. *)
let test_injection_cardinality () =
  let e = fresh () in
  let query input = Printf.sprintf "SELECT * FROM users WHERE name='%s'" input in
  Alcotest.(check int) "honest input: one row" 1
    (Array.length (rows_of (Engine.exec e (query "alice"))));
  Alcotest.(check int) "tautology: all rows" 3
    (Array.length (rows_of (Engine.exec e (query "x' OR '1'='1"))))

(* Prepared statements are immune: the payload stays a literal. *)
let test_prepared_immune_to_injection () =
  let e = fresh () in
  let stmt = parse_ok "SELECT * FROM users WHERE name = ?" in
  match Engine.execute ~params:[| Value.Str "x' OR '1'='1" |] e stmt with
  | Engine.Rows r -> Alcotest.(check int) "no rows match the weird literal" 0 (Array.length r.Engine.rows)
  | Engine.Affected _ -> Alcotest.fail "expected rows"

(* --- client API ---------------------------------------------------------- *)

let test_client_pg_style () =
  let e = fresh () in
  let conn = Client.connect e Client.Postgres in
  let res = Client.exec conn "SELECT id, name FROM users ORDER BY id" in
  Alcotest.(check int) "ntuples" 3 (Client.ntuples res);
  Alcotest.(check int) "nfields" 2 (Client.nfields res);
  Alcotest.(check string) "getvalue" "alice" (Value.to_string (Client.getvalue res 0 1));
  Alcotest.(check bool) "out of range is NULL" true
    (Value.equal (Client.getvalue res 9 0) Value.Null);
  match Client.exec conn "SELECT * FROM nope" with
  | Client.Error _ -> ()
  | Client.Result _ | Client.Command_ok _ -> Alcotest.fail "expected an error result"

let test_client_mysql_style () =
  let e = fresh () in
  let conn = Client.connect e Client.Mysql in
  Client.set_last_result conn (Some (Client.exec conn "SELECT name FROM users ORDER BY id"));
  match Client.last_result conn with
  | Some res -> (
      match Client.cursor_of_result res with
      | Some cursor ->
          Alcotest.(check int) "num rows" 3 (Client.cursor_num_rows cursor);
          let names = ref [] in
          let rec drain () =
            match Client.fetch_row cursor with
            | Some row ->
                names := Value.to_string row.(0) :: !names;
                drain ()
            | None -> ()
          in
          drain ();
          Alcotest.(check (list string)) "cursor order" [ "alice"; "bob"; "carol" ]
            (List.rev !names)
      | None -> Alcotest.fail "expected a cursor")
  | None -> Alcotest.fail "expected a stored result"

let test_client_prepared () =
  let e = fresh () in
  let conn = Client.connect e Client.Postgres in
  match Client.prepare conn "UPDATE users SET age = ? WHERE id = ?" with
  | Error msg -> Alcotest.failf "prepare failed: %s" msg
  | Ok p -> (
      match Client.exec_prepared conn p [ Value.Int 40; Value.Int 3 ] with
      | Client.Command_ok 1 -> ()
      | _ -> Alcotest.fail "expected one updated row")

let prop_like_reflexive =
  QCheck2.Test.make ~name:"LIKE: every literal matches itself" ~count:200
    QCheck2.Gen.(string_size ~gen:(char_range 'a' 'e') (int_range 0 8))
    (fun s -> Engine.like_match ~pattern:s s)

let () =
  Alcotest.run "sqldb"
    [
      ( "parsing",
        [
          Alcotest.test_case "lexer" `Quick test_sql_lexer;
          Alcotest.test_case "lexer errors" `Quick test_sql_lexer_error;
          Alcotest.test_case "integer literal range" `Quick test_sql_int_literal_range;
          Alcotest.test_case "select" `Quick test_sql_parser_select;
          Alcotest.test_case "placeholders" `Quick test_sql_parser_params;
          Alcotest.test_case "parse errors" `Quick test_sql_parser_errors;
        ] );
      ( "engine",
        [
          Alcotest.test_case "crud" `Quick test_engine_crud;
          Alcotest.test_case "copy is deep" `Quick test_engine_copy;
          Alcotest.test_case "NULL comparison semantics" `Quick test_engine_where_semantics;
          Alcotest.test_case "order by / limit" `Quick test_engine_order_limit;
          Alcotest.test_case "count(*)" `Quick test_engine_count;
          Alcotest.test_case "aggregates" `Quick test_engine_aggregates;
          Alcotest.test_case "semantic errors" `Quick test_engine_errors;
          Alcotest.test_case "prepared parameters" `Quick test_engine_prepared;
          Alcotest.test_case "LIKE matcher" `Quick test_like_match;
          Alcotest.test_case "tautology changes cardinality" `Quick test_injection_cardinality;
          Alcotest.test_case "prepared immune to injection" `Quick test_prepared_immune_to_injection;
          QCheck_alcotest.to_alcotest prop_like_reflexive;
        ] );
      ( "client",
        [
          Alcotest.test_case "libpq style" `Quick test_client_pg_style;
          Alcotest.test_case "mysql style" `Quick test_client_mysql_style;
          Alcotest.test_case "prepared" `Quick test_client_prepared;
        ] );
    ]
