type t = {
  entry : int;
  idoms : (int, int) Hashtbl.t;  (* node -> immediate dominator; entry maps to itself *)
  kids : (int, int list) Hashtbl.t;
}

(* Successors/predecessors of the full flow graph: the acyclic relation
   plus the recorded loop back edges. *)
let full_succs (cfg : Cfg.t) id =
  Cfg.successors cfg id
  @ List.filter_map (fun (src, dst) -> if src = id then Some dst else None) cfg.Cfg.back_edges

let full_preds (cfg : Cfg.t) id =
  Cfg.predecessors cfg id
  @ List.filter_map (fun (src, dst) -> if dst = id then Some src else None) cfg.Cfg.back_edges

(* Reverse postorder of the reachable subgraph, entry first. *)
let reverse_postorder cfg =
  let visited = Hashtbl.create 32 in
  let order = ref [] in
  let rec dfs id =
    if not (Hashtbl.mem visited id) then begin
      Hashtbl.replace visited id ();
      List.iter dfs (full_succs cfg id);
      order := id :: !order
    end
  in
  dfs cfg.Cfg.entry;
  !order

let compute (cfg : Cfg.t) =
  let rpo = reverse_postorder cfg in
  let rpo_num = Hashtbl.create 32 in
  List.iteri (fun i id -> Hashtbl.replace rpo_num id i) rpo;
  let idoms = Hashtbl.create 32 in
  Hashtbl.replace idoms cfg.Cfg.entry cfg.Cfg.entry;
  (* Walk both fingers up the current partial tree until they meet. *)
  let rec intersect a b =
    if a = b then a
    else
      let na = Hashtbl.find rpo_num a and nb = Hashtbl.find rpo_num b in
      if na > nb then intersect (Hashtbl.find idoms a) b
      else intersect a (Hashtbl.find idoms b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if b <> cfg.Cfg.entry then begin
          let preds =
            List.filter
              (fun p -> Hashtbl.mem rpo_num p && Hashtbl.mem idoms p)
              (full_preds cfg b)
          in
          match preds with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if Hashtbl.find_opt idoms b <> Some new_idom then begin
                Hashtbl.replace idoms b new_idom;
                changed := true
              end
        end)
      rpo
  done;
  let kids = Hashtbl.create 32 in
  Hashtbl.iter
    (fun node parent ->
      if node <> parent then
        let cur = match Hashtbl.find_opt kids parent with Some l -> l | None -> [] in
        Hashtbl.replace kids parent (node :: cur))
    idoms;
  { entry = cfg.Cfg.entry; idoms; kids }

let reachable t id = Hashtbl.mem t.idoms id

let dominates t a b =
  let rec up node = node = a || (node <> t.entry && up (Hashtbl.find t.idoms node)) in
  reachable t b && up b
