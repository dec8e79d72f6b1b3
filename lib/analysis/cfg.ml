type call_site = {
  callee : string;
  args : Applang.Ast.expr list;
  call_expr : Applang.Ast.expr;
  is_user : bool;
  mutable label : int option;
}

type event =
  | E_entry
  | E_exit
  | E_call of call_site
  | E_bind of string * Applang.Ast.expr
  | E_cond of Applang.Ast.expr
  | E_return of Applang.Ast.expr option
  | E_join

type node = { id : int; func : string; event : event }

type branch = { cond : int; if_true : int; if_false : int }

type t = {
  func : string;
  params : string list;
  entry : int;
  exit : int;
  nodes : (int, node) Hashtbl.t;
  succs : (int, int list) Hashtbl.t;
  preds : (int, int list) Hashtbl.t;
  mutable back_edges : (int * int) list;
  mutable branches : branch list;
}

let node t id = Hashtbl.find t.nodes id

let successors t id = match Hashtbl.find_opt t.succs id with Some l -> l | None -> []
let predecessors t id = match Hashtbl.find_opt t.preds id with Some l -> l | None -> []

let node_ids t = List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.nodes [])

let out_degree t id = List.length (successors t id)

let call_of_node t id =
  match (node t id).event with
  | E_call site -> Some site
  | E_entry | E_exit | E_bind _ | E_cond _ | E_return _ | E_join -> None

let call_nodes t =
  List.filter_map (fun id -> Option.map (fun s -> (id, s)) (call_of_node t id)) (node_ids t)

let symbol_of_site ~id site =
  if site.is_user then Symbol.Func site.callee
  else Symbol.Lib { name = site.callee; label = site.label; site = Some id }

let topological_order t =
  let in_degree = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace in_degree id 0) (node_ids t);
  Hashtbl.iter
    (fun _ succs ->
      List.iter
        (fun s -> Hashtbl.replace in_degree s (Hashtbl.find in_degree s + 1))
        succs)
    t.succs;
  let ready = Queue.create () in
  List.iter (fun id -> if Hashtbl.find in_degree id = 0 then Queue.add id ready) (node_ids t);
  let order = ref [] in
  let count = ref 0 in
  while not (Queue.is_empty ready) do
    let id = Queue.pop ready in
    incr count;
    order := id :: !order;
    List.iter
      (fun s ->
        let d = Hashtbl.find in_degree s - 1 in
        Hashtbl.replace in_degree s d;
        if d = 0 then Queue.add s ready)
      (successors t id)
  done;
  if !count <> Hashtbl.length t.nodes then
    invalid_arg (Printf.sprintf "Cfg.topological_order: cycle in CFG of %s" t.func);
  List.rev !order

module Sites = struct
  module Phys = Hashtbl.Make (struct
    type t = Applang.Ast.expr

    let equal = ( == )
    let hash = Hashtbl.hash
  end)

  type sites = int Phys.t

  let create () = Phys.create 64
  let register sites expr id = Phys.replace sites expr id
  let block_of sites expr = Phys.find_opt sites expr
end
