open Ast

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "&&"
  | Or -> "||"

let precedence = function
  | Or -> 1
  | And -> 2
  | Eq | Ne -> 3
  | Lt | Le | Gt | Ge -> 4
  | Add | Sub -> 5
  | Mul | Div | Mod -> 6

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* [ctx] is the minimum precedence the context requires: parenthesize
   when the node binds looser. Unary operators sit at 7, postfix
   (indexing) and atoms at 8. *)
let rec expr_prec ctx e =
  let wrap p body = if p < ctx then "(" ^ body ^ ")" else body in
  match e with
  | Int n -> if n < 0 then Printf.sprintf "(%d)" n else string_of_int n
  | Str s -> Printf.sprintf "\"%s\"" (escape s)
  | Bool true -> "true"
  | Bool false -> "false"
  | Null -> "null"
  | Var v -> v
  | Binop (op, a, b) ->
      let p = precedence op in
      wrap p
        (Printf.sprintf "%s %s %s" (expr_prec p a) (binop_to_string op)
           (expr_prec (p + 1) b))
  | Unop (Not, a) -> wrap 7 ("!" ^ expr_prec 7 a)
  | Unop (Neg, ((Int _ | Unop (Neg, _)) as a)) ->
      (* [-5] would reparse as the literal [Int (-5)]; parenthesizing
         the operand keeps an explicit negation a negation *)
      wrap 7 ("-(" ^ expr_prec 0 a ^ ")")
  | Unop (Neg, a) -> wrap 7 ("-" ^ expr_prec 7 a)
  | Call (name, args) ->
      Printf.sprintf "%s(%s)" name (String.concat ", " (List.map (expr_prec 0) args))
  | Index (a, i) -> Printf.sprintf "%s[%s]" (expr_prec 8 a) (expr_prec 0 i)

let expr_to_string e = expr_prec 0 e

let indent n = String.make (2 * n) ' '

let rec stmt_lines depth s =
  let pad = indent depth in
  match s with
  | Let (v, e) -> [ Printf.sprintf "%slet %s = %s;" pad v (expr_to_string e) ]
  | Assign (v, e) -> [ Printf.sprintf "%s%s = %s;" pad v (expr_to_string e) ]
  | Expr e -> [ Printf.sprintf "%s%s;" pad (expr_to_string e) ]
  | Return None -> [ pad ^ "return;" ]
  | Return (Some e) -> [ Printf.sprintf "%sreturn %s;" pad (expr_to_string e) ]
  | Break -> [ pad ^ "break;" ]
  | Continue -> [ pad ^ "continue;" ]
  | If (cond, then_, []) ->
      (Printf.sprintf "%sif (%s) {" pad (expr_to_string cond))
      :: block_lines (depth + 1) then_
      @ [ pad ^ "}" ]
  | If (cond, then_, else_) ->
      (Printf.sprintf "%sif (%s) {" pad (expr_to_string cond))
      :: block_lines (depth + 1) then_
      @ [ pad ^ "} else {" ]
      @ block_lines (depth + 1) else_
      @ [ pad ^ "}" ]
  | While (cond, body) ->
      (Printf.sprintf "%swhile (%s) {" pad (expr_to_string cond))
      :: block_lines (depth + 1) body
      @ [ pad ^ "}" ]
  | For (init, cond, step, body) ->
      let header stmt =
        match stmt_lines 0 stmt with
        | [ line ] -> String.sub line 0 (String.length line - 1) (* drop ';' *)
        | _ -> assert false
      in
      (Printf.sprintf "%sfor (%s; %s; %s) {" pad (header init) (expr_to_string cond) (header step))
      :: block_lines (depth + 1) body
      @ [ pad ^ "}" ]

and block_lines depth stmts = List.concat_map (stmt_lines depth) stmts

let func_lines (f : func) =
  (Printf.sprintf "fun %s(%s) {" f.name (String.concat ", " f.params))
  :: block_lines 1 f.body
  @ [ "}" ]

let program_to_string (p : program) =
  String.concat "\n" (List.concat_map (fun f -> func_lines f @ [ "" ]) p.funcs)
