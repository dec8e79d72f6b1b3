module Ast = Applang.Ast
module Libspec = Applang.Libspec
module Analyzer = Analysis.Analyzer
module Symbol = Analysis.Symbol

type outcome = {
  stdout : string;
  files : (string * string) list;
  system_calls : string list;
  queries : string list;
  query_log : (string * int) list;
  tainted_files : string list;
  sink_flows : (int * (string * string)) list;
  responses : string;
  steps : int;
  leaked_values : int;
  status : (unit, string) result;
}

exception Break_exc
exception Continue_exc
exception Return_exc of Rvalue.t

type ctx = {
  analysis : Analyzer.t;
  st : Istate.t;
  collector : Collector.t;
  patches : Patch.t list;
}

let lookup env x =
  match Hashtbl.find_opt env x with
  | Some v -> v
  | None -> raise (Istate.Error (Printf.sprintf "unbound variable %s" x))

let entry_block ctx func =
  match List.assoc_opt func ctx.analysis.Analyzer.cfgs with
  | Some cfg -> cfg.Analysis.Cfg.entry
  | None -> -1

let fire_patches ctx ~caller ~block patches =
  List.iter
    (fun (p : Patch.t) ->
      List.iter
        (fun (c : Patch.injected_call) ->
          let label = if c.Patch.leaks_td && block >= 0 then Some block else None in
          if c.Patch.leaks_td then
            ctx.st.Istate.leaked_values <- ctx.st.Istate.leaked_values + 1;
          ctx.collector.Collector.emit
            {
              Collector.symbol = Symbol.Lib { name = c.Patch.name; label; site = None };
              caller;
              block;
            }
            ~args:[])
        p.Patch.calls)
    patches

let binop_error op a b =
  raise
    (Istate.Error
       (Printf.sprintf "type error: %s %s %s" (Rvalue.type_name a)
          (Applang.Pretty.binop_to_string op)
          (Rvalue.type_name b)))

let eval_binop op (a : Rvalue.t) (b : Rvalue.t) : Rvalue.t =
  let taint = a.Rvalue.taint || b.Rvalue.taint in
  let tags = Rvalue.union_tags a.Rvalue.tags b.Rvalue.tags in
  let int_op f =
    match (a.Rvalue.base, b.Rvalue.base) with
    | Rvalue.VInt x, Rvalue.VInt y -> Rvalue.int ~taint ~tags (f x y)
    | _ -> binop_error op a b
  in
  let compare_op cmp =
    match (a.Rvalue.base, b.Rvalue.base) with
    | Rvalue.VInt x, Rvalue.VInt y -> Rvalue.bool (cmp (compare x y) 0)
    | Rvalue.VStr x, Rvalue.VStr y -> Rvalue.bool (cmp (compare x y) 0)
    | _ -> binop_error op a b
  in
  let equality () =
    match (a.Rvalue.base, b.Rvalue.base) with
    | Rvalue.VInt x, Rvalue.VInt y -> x = y
    | Rvalue.VStr x, Rvalue.VStr y -> x = y
    | Rvalue.VBool x, Rvalue.VBool y -> x = y
    | Rvalue.VNull, Rvalue.VNull -> true
    | Rvalue.VNull, _ | _, Rvalue.VNull -> false
    | Rvalue.VInt x, Rvalue.VStr y | Rvalue.VStr y, Rvalue.VInt x -> string_of_int x = y
    | _ -> binop_error op a b
  in
  match op with
  | Ast.Add -> (
      match (a.Rvalue.base, b.Rvalue.base) with
      | Rvalue.VInt x, Rvalue.VInt y -> Rvalue.int ~taint ~tags (x + y)
      | Rvalue.VStr _, _ | _, Rvalue.VStr _ ->
          Rvalue.str ~taint ~tags (Rvalue.to_display a ^ Rvalue.to_display b)
      | _ -> binop_error op a b)
  | Ast.Sub -> int_op ( - )
  | Ast.Mul -> int_op ( * )
  | Ast.Div ->
      int_op (fun x y -> if y = 0 then raise (Istate.Error "division by zero") else x / y)
  | Ast.Mod ->
      int_op (fun x y -> if y = 0 then raise (Istate.Error "modulo by zero") else x mod y)
  | Ast.Eq -> Rvalue.bool (equality ())
  | Ast.Ne -> Rvalue.bool (not (equality ()))
  | Ast.Lt -> compare_op ( < )
  | Ast.Le -> compare_op ( <= )
  | Ast.Gt -> compare_op ( > )
  | Ast.Ge -> compare_op ( >= )
  | Ast.And | Ast.Or -> assert false (* short-circuited in eval *)

let taint_of_result name args (raw : Rvalue.t) =
  match Libspec.taint_of name with
  | Libspec.Source -> Rvalue.retaint true raw
  | Libspec.Propagate ->
      Rvalue.retaint (List.exists (fun (v : Rvalue.t) -> v.Rvalue.taint) args) raw
  | Libspec.Clean -> Rvalue.retaint false raw

let rec eval ctx env caller (expr : Ast.expr) : Rvalue.t =
  match expr with
  | Ast.Int n -> Rvalue.int n
  | Ast.Str s -> Rvalue.str s
  | Ast.Bool b -> Rvalue.bool b
  | Ast.Null -> Rvalue.null
  | Ast.Var x -> lookup env x
  | Ast.Binop (Ast.And, a, b) ->
      if Rvalue.truthy (eval ctx env caller a) then
        Rvalue.bool (Rvalue.truthy (eval ctx env caller b))
      else Rvalue.bool false
  | Ast.Binop (Ast.Or, a, b) ->
      if Rvalue.truthy (eval ctx env caller a) then Rvalue.bool true
      else Rvalue.bool (Rvalue.truthy (eval ctx env caller b))
  | Ast.Binop (op, a, b) -> eval_binop op (eval ctx env caller a) (eval ctx env caller b)
  | Ast.Unop (Ast.Not, a) -> Rvalue.bool (not (Rvalue.truthy (eval ctx env caller a)))
  | Ast.Unop (Ast.Neg, a) -> (
      let v = eval ctx env caller a in
      match v.Rvalue.base with
      | Rvalue.VInt n -> Rvalue.int ~taint:v.Rvalue.taint (-n)
      | _ -> raise (Istate.Error "unary minus on a non-int"))
  | Ast.Index (a, i) -> (
      let v = eval ctx env caller a in
      let idx = eval ctx env caller i in
      let tags = v.Rvalue.tags in
      match (v.Rvalue.base, idx.Rvalue.base) with
      | Rvalue.VRow cells, Rvalue.VInt n ->
          if n < 0 || n >= Array.length cells then
            Rvalue.retag tags (Rvalue.retaint v.Rvalue.taint Rvalue.null)
          else
            (match cells.(n) with
            | Sqldb.Value.Int k -> Rvalue.int ~taint:v.Rvalue.taint ~tags k
            | Sqldb.Value.Str s -> Rvalue.str ~taint:v.Rvalue.taint ~tags s
            | Sqldb.Value.Null ->
                Rvalue.retag tags (Rvalue.retaint v.Rvalue.taint Rvalue.null))
      | Rvalue.VStr s, Rvalue.VInt n ->
          if n < 0 || n >= String.length s then Rvalue.str ~taint:v.Rvalue.taint ~tags ""
          else Rvalue.str ~taint:v.Rvalue.taint ~tags (String.make 1 s.[n])
      | _ -> raise (Istate.Error "indexing a non-row value"))
  | Ast.Call (name, arg_exprs) -> (
      Istate.tick ctx.st;
      let args =
        List.fold_left (fun acc e -> eval ctx env caller e :: acc) [] arg_exprs
        |> List.rev
      in
      match Ast.find_func ctx.analysis.Analyzer.program name with
      | Some func -> call_user ctx name func args
      | None -> call_builtin ctx expr caller name args)

and call_user ctx name (func : Ast.func) args =
  if List.length args <> List.length func.Ast.params then
    raise
      (Istate.Error
         (Printf.sprintf "%s expects %d arguments, got %d" name
            (List.length func.Ast.params) (List.length args)));
  let env = Hashtbl.create 16 in
  List.iter2 (fun p v -> Hashtbl.replace env p v) func.Ast.params args;
  fire_patches ctx ~caller:name ~block:(entry_block ctx name)
    (Patch.fires_at_entry ctx.patches name);
  match exec_block ctx env name func.Ast.body with
  | () -> Rvalue.null
  | exception Return_exc v -> v

and call_builtin ctx expr caller name args =
  let block =
    match Analyzer.block_of_call ctx.analysis expr with Some b -> b | None -> -1
  in
  fire_patches ctx ~caller ~block (Patch.fires_before ctx.patches block);
  let tainted_args = List.filter (fun (v : Rvalue.t) -> v.Rvalue.taint) args in
  let labelled = Libspec.is_sink name && tainted_args <> [] in
  if labelled then
    ctx.st.Istate.leaked_values <- ctx.st.Istate.leaked_values + List.length tainted_args;
  let event =
    if block >= 0 then Analyzer.site_event ctx.analysis ~block ~labelled
    else { Collector.symbol = Symbol.Lib { name; label = None; site = None }; caller; block }
  in
  ctx.collector.Collector.emit event ~args;
  (* provenance shadow heap: a tagged value reaching a sink is one
     observed flow — what the static leakage summary must cover *)
  if Libspec.is_sink name && block >= 0 then
    List.iter
      (fun tag -> Istate.push_sink_flow ctx.st block tag)
      (Rvalue.args_tags args);
  let raw = Builtins.dispatch ctx.st name args in
  let result = taint_of_result name args raw in
  (* string builtins propagate their arguments' tags — the same set the
     static Leakage.eval unions over *)
  let result =
    match name with
    | "strcpy" | "strcat" | "substr" | "to_string" | "sprintf" | "snprintf"
    | "atoi" ->
        Rvalue.retag (Rvalue.args_tags args) result
    | _ -> result
  in
  fire_patches ctx ~caller ~block (Patch.fires_after ctx.patches block);
  result

and exec_stmt ctx env caller (stmt : Ast.stmt) =
  Istate.tick ctx.st;
  match stmt with
  | Ast.Let (x, e) | Ast.Assign (x, e) -> Hashtbl.replace env x (eval ctx env caller e)
  | Ast.Expr e -> ignore (eval ctx env caller e)
  | Ast.If (cond, then_, else_) ->
      if Rvalue.truthy (eval ctx env caller cond) then exec_block ctx env caller then_
      else exec_block ctx env caller else_
  | Ast.While (cond, body) -> (
      let rec loop () =
        Istate.tick ctx.st;
        if Rvalue.truthy (eval ctx env caller cond) then begin
          (try exec_block ctx env caller body with Continue_exc -> ());
          loop ()
        end
      in
      try loop () with Break_exc -> ())
  | Ast.For (init, cond, step, body) -> (
      exec_stmt ctx env caller init;
      let rec loop () =
        Istate.tick ctx.st;
        if Rvalue.truthy (eval ctx env caller cond) then begin
          (try exec_block ctx env caller body with Continue_exc -> ());
          exec_stmt ctx env caller step;
          loop ()
        end
      in
      try loop () with Break_exc -> ())
  | Ast.Return None -> raise (Return_exc Rvalue.null)
  | Ast.Return (Some e) -> raise (Return_exc (eval ctx env caller e))
  | Ast.Break -> raise Break_exc
  | Ast.Continue -> raise Continue_exc

and exec_block ctx env caller stmts = List.iter (exec_stmt ctx env caller) stmts

let run ?(collector = Collector.null) ?(patches = []) ?(max_steps = 1_000_000)
    ?query_rewriter ~analysis ~engine tc =
  let st = Istate.create ?query_rewriter ~engine ~max_steps tc in
  let ctx = { analysis; st; collector; patches } in
  let status =
    match Ast.find_func analysis.Analyzer.program "main" with
    | None -> Error "program has no main function"
    | Some main -> (
        try
          ignore (call_user ctx "main" main []);
          Ok ()
        with
        | Istate.Program_exit | Return_exc _ -> Ok ()
        | Istate.Error msg -> Error msg
        | Break_exc | Continue_exc -> Error "break/continue outside a loop")
  in
  {
    stdout = Buffer.contents st.Istate.stdout;
    files = Istate.written st;
    system_calls = List.rev st.Istate.system_calls;
    queries = Istate.queries st;
    query_log = Istate.query_log st;
    tainted_files = List.rev st.Istate.tainted_paths;
    sink_flows = Istate.sink_flows st;
    responses = Buffer.contents st.Istate.responses;
    steps = st.Istate.steps;
    leaked_values = st.Istate.leaked_values;
    status;
  }

let collect_trace ?patches ?max_steps ?query_rewriter ~analysis ~engine tc =
  let collector, trace = Collector.adprom () in
  (* with_obs is free unless the log threshold is lowered to Debug *)
  let collector = Collector.with_obs collector in
  let outcome =
    Adprom_obs.Trace.with_span "runtime.collect_trace"
      ~attrs:(fun () -> [ ("case", tc.Testcase.name) ])
      (fun () ->
        run ~collector ?patches ?max_steps ?query_rewriter ~analysis ~engine tc)
  in
  (trace (), outcome)
