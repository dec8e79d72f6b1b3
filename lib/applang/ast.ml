type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or

type unop = Not | Neg

type expr =
  | Int of int
  | Str of string
  | Bool of bool
  | Null
  | Var of string
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Call of string * expr list
  | Index of expr * expr

type stmt =
  | Let of string * expr
  | Assign of string * expr
  | Expr of expr
  | If of expr * block * block
  | While of expr * block
  | For of stmt * expr * stmt * block
  | Return of expr option
  | Break
  | Continue

and block = stmt list

type func = { name : string; params : string list; body : block }

type program = { funcs : func list }

let find_func p name = List.find_opt (fun f -> f.name = name) p.funcs

let func_names p = List.map (fun f -> f.name) p.funcs

let rec calls_in_expr e =
  match e with
  | Int _ | Str _ | Bool _ | Null | Var _ -> []
  | Binop (_, a, b) -> calls_in_expr a @ calls_in_expr b
  | Unop (_, a) -> calls_in_expr a
  | Index (a, b) -> calls_in_expr a @ calls_in_expr b
  | Call (_, args) -> List.concat_map calls_in_expr args @ [ e ]
