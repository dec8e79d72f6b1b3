module Ast = Applang.Ast

let update_function p name f =
  if not (List.exists (fun (g : Ast.func) -> g.Ast.name = name) p.Ast.funcs) then
    raise Not_found;
  {
    Ast.funcs =
      List.map
        (fun (g : Ast.func) -> if g.Ast.name = name then f g else g)
        p.Ast.funcs;
  }

let insert_in_function p ~func ~at stmts =
  update_function p func (fun g ->
      let body = g.Ast.body in
      let at = max 0 (min at (List.length body)) in
      let before = List.filteri (fun i _ -> i < at) body in
      let after = List.filteri (fun i _ -> i >= at) body in
      { g with Ast.body = before @ stmts @ after })

let append_to_function p ~func stmts =
  update_function p func (fun g -> { g with Ast.body = g.Ast.body @ stmts })

(* Rewrite the [occurrence]-th call to [callee] within a function, in
   evaluation order of the statements. *)
let rewrite_call_args p ~func ~callee ~occurrence rewrite =
  let seen = ref (-1) in
  let rec map_expr e =
    match e with
    | Ast.Int _ | Ast.Str _ | Ast.Bool _ | Ast.Null | Ast.Var _ -> e
    | Ast.Binop (op, a, b) -> Ast.Binop (op, map_expr a, map_expr b)
    | Ast.Unop (op, a) -> Ast.Unop (op, map_expr a)
    | Ast.Index (a, b) -> Ast.Index (map_expr a, map_expr b)
    | Ast.Call (name, args) ->
        let args = List.map map_expr args in
        if name = callee then begin
          incr seen;
          if !seen = occurrence then Ast.Call (name, rewrite args) else Ast.Call (name, args)
        end
        else Ast.Call (name, args)
  in
  let rec map_stmt s =
    match s with
    | Ast.Let (x, e) -> Ast.Let (x, map_expr e)
    | Ast.Assign (x, e) -> Ast.Assign (x, map_expr e)
    | Ast.Expr e -> Ast.Expr (map_expr e)
    | Ast.If (c, t, e) -> Ast.If (map_expr c, List.map map_stmt t, List.map map_stmt e)
    | Ast.While (c, b) -> Ast.While (map_expr c, List.map map_stmt b)
    | Ast.For (i, c, st, b) ->
        Ast.For (map_stmt i, map_expr c, map_stmt st, List.map map_stmt b)
    | Ast.Return (Some e) -> Ast.Return (Some (map_expr e))
    | Ast.Return None | Ast.Break | Ast.Continue -> s
  in
  let p' = update_function p func (fun g -> { g with Ast.body = List.map map_stmt g.Ast.body }) in
  if !seen >= occurrence then p' else raise Not_found

let rewrite_strings p ~func f =
  let rec map_expr e =
    match e with
    | Ast.Str s -> Ast.Str (f s)
    | Ast.Int _ | Ast.Bool _ | Ast.Null | Ast.Var _ -> e
    | Ast.Binop (op, a, b) -> Ast.Binop (op, map_expr a, map_expr b)
    | Ast.Unop (op, a) -> Ast.Unop (op, map_expr a)
    | Ast.Index (a, b) -> Ast.Index (map_expr a, map_expr b)
    | Ast.Call (name, args) -> Ast.Call (name, List.map map_expr args)
  in
  let rec map_stmt s =
    match s with
    | Ast.Let (x, e) -> Ast.Let (x, map_expr e)
    | Ast.Assign (x, e) -> Ast.Assign (x, map_expr e)
    | Ast.Expr e -> Ast.Expr (map_expr e)
    | Ast.If (c, t, e) -> Ast.If (map_expr c, List.map map_stmt t, List.map map_stmt e)
    | Ast.While (c, b) -> Ast.While (map_expr c, List.map map_stmt b)
    | Ast.For (i, c, st, b) ->
        Ast.For (map_stmt i, map_expr c, map_stmt st, List.map map_stmt b)
    | Ast.Return (Some e) -> Ast.Return (Some (map_expr e))
    | Ast.Return None | Ast.Break | Ast.Continue -> s
  in
  update_function p func (fun g -> { g with Ast.body = List.map map_stmt g.Ast.body })
