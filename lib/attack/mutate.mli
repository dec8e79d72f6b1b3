(** AST surgery used by the source-level attacks (Sec. III, cases 1 and
    3 of the adversary model): inserting, duplicating and rewriting
    statements or call arguments inside a parsed program. *)

val insert_in_function :
  Applang.Ast.program -> func:string -> at:int -> Applang.Ast.stmt list -> Applang.Ast.program
(** Insert statements before position [at] (clamped) of the function's
    top-level body. @raise Not_found on an unknown function. *)

val append_to_function :
  Applang.Ast.program -> func:string -> Applang.Ast.stmt list -> Applang.Ast.program

val rewrite_call_args :
  Applang.Ast.program ->
  func:string ->
  callee:string ->
  occurrence:int ->
  (Applang.Ast.expr list -> Applang.Ast.expr list) ->
  Applang.Ast.program
(** Rewrite the argument list of the [occurrence]-th (0-based) call to
    [callee] anywhere inside the function, in evaluation order.
    @raise Not_found when no such occurrence exists. *)

val rewrite_strings :
  Applang.Ast.program -> func:string -> (string -> string) -> Applang.Ast.program
(** Map every string literal of the function — e.g. widening a query's
    selectivity ([ID = 10] -> [ID >= 10], the Fig. 1 attack). *)
