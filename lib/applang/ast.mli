(** Abstract syntax of AppLang, the C-like language in which all subject
    application programs of the reproduction are written.

    AppLang plays the role of the C sources/binaries of the paper: it has
    functions, blocks, conditionals, loops, and calls to "library"
    functions such as [printf], [scanf], [strcpy], [pq_exec] or
    [mysql_query], which is exactly the vocabulary AD-PROM's analyses and
    traces operate on. *)

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
      (** call to a library builtin or a user-defined function *)
  | Index of expr * expr  (** [row\[i\]] field access on a DB row *)

type stmt =
  | Let of string * expr  (** declaration with initializer *)
  | Assign of string * expr
  | Expr of expr  (** expression statement, usually a call *)
  | If of expr * block * block
      (** [If (cond, then_, else_)]; a missing else is the empty block *)
  | While of expr * block
  | For of stmt * expr * stmt * block  (** [for (init; cond; step) body] *)
  | Return of expr option
  | Break
  | Continue

and block = stmt list

type func = { name : string; params : string list; body : block }

type program = { funcs : func list }

val find_func : program -> string -> func option

val func_names : program -> string list

val calls_in_expr : expr -> expr list
(** All [Call] sub-expressions of an expression, in evaluation order
    (arguments left to right, innermost call before the enclosing one).
    The returned values are the physical sub-terms of the input, so they
    can key physical-identity tables shared between the CFG builder and
    the interpreter. *)
