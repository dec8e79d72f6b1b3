module Ast = Applang.Ast
module Libspec = Applang.Libspec
module SS = Set.Make (String)

type summary = bool Dataflow.summary

type result = {
  labeled_blocks : int list;
  summaries : (string * summary) list;
  entry_taint : (string * bool array) list;
}

(* May [e] evaluate to targeted data, given the variables' taint and
   the user functions' summaries? *)
let rec expr_taint ?(lib_taint = Libspec.taint_of) ~tainted ~summary_of (e : Ast.expr) =
  let sub x = expr_taint ~lib_taint ~tainted ~summary_of x in
  match e with
  | Ast.Int _ | Ast.Str _ | Ast.Bool _ | Ast.Null -> false
  | Ast.Var v -> tainted v
  | Ast.Binop (_, a, b) -> sub a || sub b
  | Ast.Unop (_, a) -> sub a
  | Ast.Index (a, b) -> sub a || sub b
  | Ast.Call (name, args) -> (
      match summary_of name with
      | Some s -> s.Dataflow.const || List.exists sub (Dataflow.flowing_args s args)
      | None -> (
          match lib_taint name with
          | Libspec.Source -> true
          | Libspec.Propagate -> List.exists sub args
          | Libspec.Clean -> false))

(* The may-taint environment lattice: sets of tainted variables. *)
module Env = struct
  type t = SS.t

  let bottom = SS.empty
  let join = SS.union
  let equal = SS.equal
end

module Flow = Dataflow.Make (Env)

(* A parameter's or a return value's taint: one bit. *)
module Bit = struct
  type t = bool

  let bottom = false
  let join = ( || )
  let equal = Bool.equal
  let marker = true
  let reached = Fun.id
end

(* Dataflow over one CFG given its tainted parameters. Back edges
   participate so loop-carried taint converges. Unreachable nodes keep
   the bottom (empty) environment, matching the engine's view. *)
let intra ~lib_taint ~summary_of (cfg : Cfg.t) (entry_env : SS.t) =
  let transfer (n : Cfg.node) env =
    match n.Cfg.event with
    | Cfg.E_bind (x, e) ->
        let tainted v = SS.mem v env in
        if expr_taint ~lib_taint ~tainted ~summary_of e then SS.add x env
        else SS.remove x env
    | Cfg.E_entry | Cfg.E_exit | Cfg.E_call _ | Cfg.E_cond _ | Cfg.E_return _ | Cfg.E_join ->
        env
  in
  Flow.solve cfg ~entry:entry_env ~transfer

let analyze ?(per_arg = true) ?(lib_taint = Libspec.taint_of) ?(label_sinks = true) cfgs =
  let module P = struct
    type value = bool
    type solution = Flow.solution

    let solve ~summary_of cfg params =
      let tainted = List.filter_map (fun (p, t) -> if t then Some p else None) params in
      intra ~lib_taint ~summary_of cfg (SS.of_list tainted)

    let eval_at ~summary_of sol id e =
      let env = Flow.input sol id in
      expr_taint ~lib_taint ~tainted:(fun v -> SS.mem v env) ~summary_of e
  end in
  let module S = Dataflow.Summaries (Bit) (P) in
  let fix = S.solve ~per_param:per_arg cfgs in
  let summary_of = S.summary_of fix in
  (* Final labeling pass under the converged actual assumptions. *)
  let labeled = ref [] in
  if label_sinks then
    List.iter
      (fun (_name, cfg) ->
        let sol = S.solve_entry fix cfg in
        List.iter
          (fun (id, site) ->
            site.Cfg.label <- None;
            if
              Libspec.is_sink site.Cfg.callee
              && List.exists (P.eval_at ~summary_of sol id) site.Cfg.args
            then begin
              site.Cfg.label <- Some id;
              labeled := id :: !labeled
            end)
          (Cfg.call_nodes cfg))
      cfgs;
  {
    labeled_blocks = List.sort compare !labeled;
    summaries = S.summaries fix;
    entry_taint = S.entries fix;
  }
