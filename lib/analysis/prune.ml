module Ast = Applang.Ast
module SM = Map.Make (String)

type report = {
  func : string;
  removed_edges : (int * int) list;
  dead_nodes : int list;
}

(* --- the constant/copy lattice ----------------------------------------- *)

type const = Cint of int | Cbool of bool | Cstr of string | Cnull

type value = Const of const | Alias of string
(* [Alias y]: the variable currently holds the same value as [y].
   Bindings aliasing [y] are killed when [y] is reassigned, so an alias
   is never stale. A variable absent from the map is unknown (top). *)

type env = Bot | Env of value SM.t

module Lattice = struct
  type t = env

  let bottom = Bot

  (* Pointwise intersection of agreeing bindings: a fact survives a join
     only when both paths establish it. *)
  let join a b =
    match (a, b) with
    | Bot, e | e, Bot -> e
    | Env ma, Env mb ->
        Env
          (SM.merge
             (fun _ va vb ->
               match (va, vb) with Some x, Some y when x = y -> Some x | _ -> None)
             ma mb)

  let equal a b =
    match (a, b) with
    | Bot, Bot -> true
    | Env ma, Env mb -> SM.equal ( = ) ma mb
    | Bot, Env _ | Env _, Bot -> false
end

module Flow = Dataflow.Make (Lattice)

(* Follow alias links to a constant or a root variable. Fuel-bounded for
   safety; the kill discipline keeps chains acyclic in practice. *)
let rec resolve m fuel x =
  match SM.find_opt x m with
  | Some (Alias y) when fuel > 0 -> resolve m (fuel - 1) y
  | Some (Const c) -> `Const c
  | Some (Alias _) | None -> `Var x

let rec eval m (e : Ast.expr) =
  match e with
  | Ast.Int n -> Some (Cint n)
  | Ast.Str s -> Some (Cstr s)
  | Ast.Bool b -> Some (Cbool b)
  | Ast.Null -> Some Cnull
  | Ast.Var x -> ( match resolve m 8 x with `Const c -> Some c | `Var _ -> None)
  | Ast.Unop (Ast.Not, a) -> (
      match truth m a with Some b -> Some (Cbool (not b)) | None -> None)
  | Ast.Unop (Ast.Neg, a) -> (
      match eval m a with Some (Cint n) -> Some (Cint (-n)) | _ -> None)
  | Ast.Binop (op, a, b) -> eval_binop m op a b
  | Ast.Call _ | Ast.Index _ -> None

(* Truthiness is only decided for booleans and integers — the forms the
   interpreter (and the rest of the static phase) branch on. *)
and truth m e =
  match eval m e with
  | Some (Cbool b) -> Some b
  | Some (Cint n) -> Some (n <> 0)
  | Some (Cstr _ | Cnull) | None -> None

and eval_binop m op a b =
  let same_root () =
    (* copy propagation proper: [x == y] where both sides resolve to the
       same root variable holds whatever that value is *)
    match (a, b) with
    | Ast.Var x, Ast.Var y -> (
        match (resolve m 8 x, resolve m 8 y) with
        | `Var rx, `Var ry -> rx = ry
        | _ -> false)
    | _ -> false
  in
  match op with
  | Ast.And -> (
      match (truth m a, truth m b) with
      | Some false, _ | _, Some false -> Some (Cbool false)
      | Some true, Some true -> Some (Cbool true)
      | _ -> None)
  | Ast.Or -> (
      match (truth m a, truth m b) with
      | Some true, _ | _, Some true -> Some (Cbool true)
      | Some false, Some false -> Some (Cbool false)
      | _ -> None)
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod -> (
      match (eval m a, eval m b) with
      | Some (Cint x), Some (Cint y) -> (
          match op with
          | Ast.Add -> Some (Cint (x + y))
          | Ast.Sub -> Some (Cint (x - y))
          | Ast.Mul -> Some (Cint (x * y))
          | Ast.Div -> if y = 0 then None else Some (Cint (x / y))
          | Ast.Mod -> if y = 0 then None else Some (Cint (x mod y))
          | _ -> None)
      | _ -> None)
  | Ast.Eq | Ast.Ne -> (
      if same_root () then Some (Cbool (op = Ast.Eq))
      else
        match (eval m a, eval m b) with
        | Some x, Some y ->
            (* only fold same-constructor comparisons; cross-type
               equality is the interpreter's business *)
            let comparable =
              match (x, y) with
              | Cint _, Cint _ | Cbool _, Cbool _ | Cstr _, Cstr _ | Cnull, Cnull ->
                  true
              | _ -> false
            in
            if comparable then Some (Cbool (if op = Ast.Eq then x = y else x <> y))
            else None
        | _ -> None)
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (
      match (eval m a, eval m b) with
      | Some (Cint x), Some (Cint y) ->
          let r =
            match op with
            | Ast.Lt -> x < y
            | Ast.Le -> x <= y
            | Ast.Gt -> x > y
            | Ast.Ge -> x >= y
            | _ -> false
          in
          Some (Cbool r)
      | _ -> None)

let kill x m = SM.remove x (SM.filter (fun _ v -> v <> Alias x) m)

let transfer (n : Cfg.node) env =
  match env with
  | Bot -> Bot
  | Env m -> (
      match n.Cfg.event with
      | Cfg.E_bind (x, e) ->
          let v =
            match eval m e with
            | Some c -> Some (Const c)
            | None -> (
                match e with
                | Ast.Var y -> (
                    match resolve m 8 y with
                    | `Var r when r <> x -> Some (Alias r)
                    | _ -> None)
                | _ -> None)
          in
          let m = kill x m in
          Env (match v with Some v -> SM.add x v m | None -> m)
      | Cfg.E_entry | Cfg.E_exit | Cfg.E_call _ | Cfg.E_cond _ | Cfg.E_return _
      | Cfg.E_join ->
          Env m)

(* --- edge surgery ------------------------------------------------------- *)

(* Remove one occurrence of [src -> dst]; parallel edges keep their
   remaining multiplicity. *)
let remove_edge_once (cfg : Cfg.t) src dst =
  let remove_first tbl key v =
    match Hashtbl.find_opt tbl key with
    | None -> false
    | Some l ->
        let rec drop = function
          | [] -> None
          | x :: rest when x = v -> Some rest
          | x :: rest -> Option.map (fun r -> x :: r) (drop rest)
        in
        (match drop l with
        | None -> false
        | Some l' ->
            Hashtbl.replace tbl key l';
            true)
  in
  let a = remove_first cfg.Cfg.succs src dst in
  if a then ignore (remove_first cfg.Cfg.preds dst src);
  a

let reachable_from_entry (cfg : Cfg.t) =
  let seen = Hashtbl.create 32 in
  let rec go id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      List.iter go (Cfg.successors cfg id)
    end
  in
  if Hashtbl.mem cfg.Cfg.nodes cfg.Cfg.entry then go cfg.Cfg.entry;
  seen

let copy_cfg (cfg : Cfg.t) =
  {
    cfg with
    Cfg.nodes = Hashtbl.copy cfg.Cfg.nodes;
    succs = Hashtbl.copy cfg.Cfg.succs;
    preds = Hashtbl.copy cfg.Cfg.preds;
    back_edges = cfg.Cfg.back_edges;
    branches = cfg.Cfg.branches;
  }

(* Drop nodes unreachable from the entry, with their edges. *)
let drop_dead (cfg : Cfg.t) =
  let live = reachable_from_entry cfg in
  let dead =
    List.filter (fun id -> not (Hashtbl.mem live id)) (Cfg.node_ids cfg)
  in
  if dead <> [] then begin
    List.iter
      (fun id ->
        Hashtbl.remove cfg.Cfg.nodes id;
        Hashtbl.remove cfg.Cfg.succs id;
        Hashtbl.remove cfg.Cfg.preds id)
      dead;
    let is_live id = Hashtbl.mem live id in
    Hashtbl.iter
      (fun id preds ->
        let preds' = List.filter is_live preds in
        if List.length preds' <> List.length preds then
          Hashtbl.replace cfg.Cfg.preds id preds')
      (Hashtbl.copy cfg.Cfg.preds);
    cfg.Cfg.back_edges <-
      List.filter (fun (a, b) -> is_live a && is_live b) cfg.Cfg.back_edges;
    cfg.Cfg.branches <-
      List.filter (fun b -> is_live b.Cfg.cond) cfg.Cfg.branches
  end;
  dead

(* One propagate-and-prune round; returns the removed edges. *)
let prune_round (cfg : Cfg.t) =
  let sol = Flow.solve cfg ~entry:(Env SM.empty) ~transfer in
  let removed = ref [] in
  let remove src dst =
    if remove_edge_once cfg src dst then removed := (src, dst) :: !removed
  in
  List.iter
    (fun (b : Cfg.branch) ->
      (* out-degree < 2 means an arm was already removed in an earlier
         round: the branch is decided, nothing more to take (and with
         parallel same-target arms a second removal would sever the
         surviving one) *)
      if
        Hashtbl.mem cfg.Cfg.nodes b.Cfg.cond
        && Cfg.out_degree cfg b.Cfg.cond >= 2
        && Flow.reachable sol b.Cfg.cond
      then
        match (Cfg.node cfg b.Cfg.cond).Cfg.event with
        | Cfg.E_cond e -> (
            let m =
              match Flow.input sol b.Cfg.cond with Env m -> m | Bot -> SM.empty
            in
            match truth m e with
            | Some true ->
                remove b.Cfg.cond b.Cfg.if_false;
                (* a constantly-true loop is only ever left through a
                   [break]: the latch fall-throughs to the exit join are
                   as dead as the header's false edge *)
                List.iter
                  (fun (latch, header) ->
                    if header = b.Cfg.cond then remove latch b.Cfg.if_false)
                  cfg.Cfg.back_edges
            | Some false -> remove b.Cfg.cond b.Cfg.if_true
            | None -> ())
        | _ -> ())
    cfg.Cfg.branches;
  !removed

let function_cfg (cfg : Cfg.t) =
  let work = copy_cfg cfg in
  let removed = ref [] and dead = ref [] in
  let rec fixpoint budget =
    if budget > 0 then begin
      let r = prune_round work in
      if r <> [] then begin
        removed := !removed @ r;
        dead := !dead @ drop_dead work;
        fixpoint (budget - 1)
      end
    end
  in
  fixpoint (List.length cfg.Cfg.branches + 1);
  if !removed = [] then (cfg, { func = cfg.Cfg.func; removed_edges = []; dead_nodes = [] })
  else
    ( work,
      {
        func = cfg.Cfg.func;
        removed_edges = List.rev !removed;
        dead_nodes = List.sort compare !dead;
      } )

let program cfgs =
  let pruned = List.map (fun (name, cfg) -> (name, function_cfg cfg)) cfgs in
  ( List.map (fun (name, (cfg, _)) -> (name, cfg)) pruned,
    List.map (fun (_, (_, r)) -> r) pruned )
