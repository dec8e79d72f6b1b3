(* Tests for the AppLang substrate: lexer, parser, pretty-printer
   (round-trip property) and library-call specification. *)

module Ast = Applang.Ast
module Lexer = Applang.Lexer
module Token = Applang.Token
module Parser = Applang.Parser
module Pretty = Applang.Pretty
module Libspec = Applang.Libspec

(* --- lexer ------------------------------------------------------------- *)

let tokens src = List.map (fun (t : Token.located) -> t.Token.token) (Lexer.tokenize src)

let test_lexer_basic () =
  Alcotest.(check bool) "keywords and idents" true
    (tokens "fun main() { let x = 1; }"
    = [
        Token.KW_FUN; Token.IDENT "main"; Token.LPAREN; Token.RPAREN; Token.LBRACE;
        Token.KW_LET; Token.IDENT "x"; Token.ASSIGN; Token.INT 1; Token.SEMI;
        Token.RBRACE; Token.EOF;
      ])

let test_lexer_operators () =
  Alcotest.(check bool) "two-char operators" true
    (tokens "== != <= >= && || < > ! ="
    = [
        Token.EQEQ; Token.BANGEQ; Token.LE; Token.GE; Token.AMPAMP; Token.PIPEPIPE;
        Token.LT; Token.GT; Token.BANG; Token.ASSIGN; Token.EOF;
      ])

let test_lexer_strings () =
  Alcotest.(check bool) "escapes" true
    (tokens {|"a\nb\t\"q\\"|} = [ Token.STRING "a\nb\t\"q\\"; Token.EOF ])

let test_lexer_comments () =
  Alcotest.(check bool) "line and block comments skipped" true
    (tokens "1 // comment\n/* multi\nline */ 2" = [ Token.INT 1; Token.INT 2; Token.EOF ])

let test_lexer_positions () =
  match Lexer.tokenize "fun\n  main" with
  | [ f; m; _eof ] ->
      Alcotest.(check (pair int int)) "fun at 1:1" (1, 1) (f.Token.line, f.Token.col);
      Alcotest.(check (pair int int)) "main at 2:3" (2, 3) (m.Token.line, m.Token.col)
  | _ -> Alcotest.fail "unexpected token count"

let test_lexer_errors () =
  let fails src =
    match Lexer.tokenize src with
    | _ -> Alcotest.failf "expected lexer error on %S" src
    | exception Lexer.Error _ -> ()
  in
  fails "\"unterminated";
  fails "a $ b";
  fails "a & b";
  fails "/* never closed"

(* --- parser ------------------------------------------------------------ *)

let test_parser_precedence () =
  let e = Parser.parse_expr "1 + 2 * 3 == 7 && !(x < 4) || y" in
  (* ((1 + (2 * 3)) == 7 && !(x < 4)) || y *)
  match e with
  | Ast.Binop (Ast.Or, Ast.Binop (Ast.And, Ast.Binop (Ast.Eq, lhs, Ast.Int 7), _), Ast.Var "y")
    -> (
      match lhs with
      | Ast.Binop (Ast.Add, Ast.Int 1, Ast.Binop (Ast.Mul, Ast.Int 2, Ast.Int 3)) -> ()
      | _ -> Alcotest.fail "mul must bind tighter than add")
  | _ -> Alcotest.fail "wrong precedence structure"

let test_parser_statements () =
  let p =
    Parser.parse_program
      {|
        fun main() {
          let i = 0;
          for (let k = 0; k < 3; k = k + 1) {
            i = i + k;
          }
          while (i > 0) {
            i = i - 1;
            if (i == 1) { break; } else { continue; }
          }
          return i;
        }
      |}
  in
  match Ast.find_func p "main" with
  | Some f -> Alcotest.(check int) "five top-level statements" 4 (List.length f.Ast.body)
  | None -> Alcotest.fail "no main"

let test_parser_else_if_chain () =
  let p = Parser.parse_program "fun f(x) { if (x == 1) { g(); } else if (x == 2) { h(); } else { k(); } }" in
  match (Option.get (Ast.find_func p "f")).Ast.body with
  | [ Ast.If (_, _, [ Ast.If (_, _, [ Ast.Expr (Ast.Call ("k", [])) ]) ]) ] -> ()
  | _ -> Alcotest.fail "else-if chain shape"

let test_parser_index_and_calls () =
  match Parser.parse_expr "f(row[0], g(1)[2])" with
  | Ast.Call ("f", [ Ast.Index (Ast.Var "row", Ast.Int 0); Ast.Index (Ast.Call ("g", [ Ast.Int 1 ]), Ast.Int 2) ]) -> ()
  | _ -> Alcotest.fail "call/index structure"

let test_parser_errors () =
  let fails src =
    match Parser.parse_program src with
    | _ -> Alcotest.failf "expected parse error on %S" src
    | exception Parser.Error _ -> ()
  in
  fails "fun f( {}";
  fails "fun f() { let = 3; }";
  fails "fun f() { if x { } }";
  fails "fun f() { return 1 }";
  fails "fun f() {} garbage"

let test_calls_in_expr_order () =
  let e = Parser.parse_expr "outer(a(), b(c()), 3)" in
  let names =
    List.map
      (fun call -> match call with Ast.Call (n, _) -> n | _ -> assert false)
      (Ast.calls_in_expr e)
  in
  Alcotest.(check (list string)) "evaluation order" [ "a"; "c"; "b"; "outer" ] names

(* --- pretty round trip -------------------------------------------------- *)

let roundtrip src =
  let p = Parser.parse_program src in
  let printed = Pretty.program_to_string p in
  let p' = Parser.parse_program printed in
  Alcotest.(check bool) "round trip preserves the AST" true (p = p')

let test_roundtrip_fixed () =
  roundtrip
    {|
      fun main() {
        let s = "he said \"hi\"\n";
        let x = -(3 + 4) * 2;
        if (x < 0 && !(s == "")) {
          printf("%d", x);
        } else {
          while (x > 0) { x = x - 1; }
        }
        for (let i = 0; i < 10; i = i + 2) { f(i, s[i]); }
        return;
      }
      fun f(a, b) { return a + 1; }
    |}

let test_roundtrip_datasets () =
  (* The real subject applications must round trip too. *)
  List.iter roundtrip
    [ Dataset.Ca_hospital.source; Dataset.Ca_banking.source; Dataset.Ca_supermarket.source ]

let test_negative_int_literals () =
  (* [-5] and [(-5)] are the literal; an explicit negation prints as
     [-(5)] so neither form collapses into the other on reparse. *)
  Alcotest.(check bool) "-5 is a literal" true (Parser.parse_expr "-5" = Ast.Int (-5));
  Alcotest.(check bool) "(-5) is a literal" true
    (Parser.parse_expr "(-5)" = Ast.Int (-5));
  Alcotest.(check bool) "negation of a variable survives" true
    (Parser.parse_expr "-x" = Ast.Unop (Ast.Neg, Ast.Var "x"));
  let reprint e = Parser.parse_expr (Pretty.expr_to_string e) in
  Alcotest.(check bool) "Int (-5) round trips" true (reprint (Ast.Int (-5)) = Ast.Int (-5));
  let neg5 = Ast.Unop (Ast.Neg, Ast.Int 5) in
  Alcotest.(check bool) "Neg (Int 5) round trips" true (reprint neg5 = neg5);
  let negneg = Ast.Unop (Ast.Neg, neg5) in
  Alcotest.(check bool) "Neg (Neg (Int 5)) round trips" true (reprint negneg = negneg)

(* qcheck: generate random expressions, print, reparse, compare. *)
let expr_gen_sized =
  let open QCheck2.Gen in
  fix (fun self n ->
      let leaf =
        oneof
          [
            map (fun i -> Ast.Int i) small_signed_int;
            map (fun s -> Ast.Str s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 5));
            pure (Ast.Bool true);
            pure Ast.Null;
            map (fun c -> Ast.Var (String.make 1 c)) (char_range 'a' 'e');
          ]
      in
      if n <= 0 then leaf
      else
        oneof
          [
            leaf;
            map3
              (fun op a b -> Ast.Binop (op, a, b))
              (oneofl
                 [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Eq; Ast.Lt; Ast.And; Ast.Or ])
              (self (n / 2)) (self (n / 2));
            map (fun a -> Ast.Unop (Ast.Not, a)) (self (n / 2));
            map (fun a -> Ast.Unop (Ast.Neg, a)) (self (n / 2));
            map2 (fun a b -> Ast.Index (a, b)) (self (n / 2)) (self (n / 2));
            map2 (fun n args -> Ast.Call (n, args))
              (oneofl [ "f"; "g"; "printf" ])
              (list_size (int_range 0 3) (self (n / 3)));
          ])

let expr_gen = QCheck2.Gen.sized expr_gen_sized

let prop_expr_roundtrip =
  QCheck2.Test.make ~name:"expression print/parse round trip" ~count:300
    ~print:Pretty.expr_to_string expr_gen (fun e ->
      let printed = Pretty.expr_to_string e in
      match Parser.parse_expr printed with
      | e' -> e = e'
      | exception _ -> false)

(* qcheck: generate random whole programs, print, reparse, compare. *)
let ident_gen = QCheck2.Gen.(map (String.make 1) (char_range 'a' 'e'))

let stmt_gen_sized =
  let open QCheck2.Gen in
  fix (fun self n ->
      let e = expr_gen_sized (min n 4) in
      let block = list_size (int_range 0 3) (self (n / 2)) in
      let leaf =
        oneof
          [
            map2 (fun v x -> Ast.Let (v, x)) ident_gen e;
            map2 (fun v x -> Ast.Assign (v, x)) ident_gen e;
            map (fun x -> Ast.Expr x) e;
            pure (Ast.Return None);
            map (fun x -> Ast.Return (Some x)) e;
            pure Ast.Break;
            pure Ast.Continue;
          ]
      in
      if n <= 0 then leaf
      else
        oneof
          [
            leaf;
            map3 (fun c t el -> Ast.If (c, t, el)) e block block;
            map2 (fun c b -> Ast.While (c, b)) e block;
            (let header = map2 (fun v x -> Ast.Assign (v, x)) ident_gen e in
             map3 (fun init (c, step) b -> Ast.For (init, c, step, b))
               (oneof [ map2 (fun v x -> Ast.Let (v, x)) ident_gen e; header ])
               (pair e header) block);
          ])

let program_gen =
  let open QCheck2.Gen in
  let func name =
    map2
      (fun params body -> { Ast.name; params; body })
      (list_size (int_range 0 2) ident_gen)
      (list_size (int_range 0 4) (sized_size (int_range 0 5) stmt_gen_sized))
  in
  map2
    (fun main fs -> { Ast.funcs = main :: fs })
    (func "main")
    (map2 (fun f g -> [ f; g ]) (func "f") (func "g"))

let prop_program_roundtrip =
  QCheck2.Test.make ~name:"program print/parse round trip" ~count:200
    ~print:Pretty.program_to_string program_gen (fun p ->
      let printed = Pretty.program_to_string p in
      match Parser.parse_program printed with
      | p' -> p = p'
      | exception _ -> false)

(* --- libspec ------------------------------------------------------------ *)

let test_libspec () =
  Alcotest.(check bool) "printf is a sink" true (Libspec.is_sink "printf");
  Alcotest.(check bool) "pq_exec is a source" true (Libspec.taint_of "pq_exec" = Libspec.Source);
  Alcotest.(check bool) "strcat propagates" true (Libspec.taint_of "strcat" = Libspec.Propagate);
  Alcotest.(check bool) "scanf is clean" true (Libspec.taint_of "scanf" = Libspec.Clean);
  Alcotest.(check bool) "synthetic lib_ calls are builtins" true (Libspec.is_builtin "lib_42");
  Alcotest.(check bool) "unknown name is not a builtin" false (Libspec.is_builtin "no_such_call");
  Alcotest.(check bool) "sprintf is both sink and propagate" true
    (Libspec.is_sink "sprintf" && Libspec.taint_of "sprintf" = Libspec.Propagate)

let () =
  Alcotest.run "applang"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic tokens" `Quick test_lexer_basic;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "string escapes" `Quick test_lexer_strings;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "positions" `Quick test_lexer_positions;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick test_parser_precedence;
          Alcotest.test_case "statements" `Quick test_parser_statements;
          Alcotest.test_case "else-if chain" `Quick test_parser_else_if_chain;
          Alcotest.test_case "calls and indexing" `Quick test_parser_index_and_calls;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "calls_in_expr order" `Quick test_calls_in_expr_order;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "fixed program round trip" `Quick test_roundtrip_fixed;
          Alcotest.test_case "dataset sources round trip" `Quick test_roundtrip_datasets;
          Alcotest.test_case "negative int literals" `Quick test_negative_int_literals;
          QCheck_alcotest.to_alcotest prop_expr_roundtrip;
          QCheck_alcotest.to_alcotest prop_program_roundtrip;
        ] );
      ("libspec", [ Alcotest.test_case "taint/sink classification" `Quick test_libspec ]);
    ]
