let reachability cfg =
  let order = Cfg.topological_order cfg in
  let reach = Hashtbl.create 32 in
  List.iter (fun id -> Hashtbl.replace reach id 0.0) (Cfg.node_ids cfg);
  Hashtbl.replace reach cfg.Cfg.entry 1.0;
  List.iter
    (fun x ->
      let rx = Hashtbl.find reach x in
      if rx > 0.0 then
        let degree = Cfg.out_degree cfg x in
        List.iter
          (fun y ->
            Hashtbl.replace reach y (Hashtbl.find reach y +. (rx /. float_of_int degree)))
          (Cfg.successors cfg x))
    order;
  List.map (fun id -> (id, Hashtbl.find reach id)) (Cfg.node_ids cfg)

(* Symbol carried by a node when it delimits call pairs, if any. *)
let node_symbol cfg id =
  let n = Cfg.node cfg id in
  match n.Cfg.event with
  | Cfg.E_entry -> Some Symbol.Entry
  | Cfg.E_exit -> Some Symbol.Exit
  | Cfg.E_call site -> Some (Cfg.symbol_of_site ~id site)
  | Cfg.E_bind _ | Cfg.E_cond _ | Cfg.E_return _ | Cfg.E_join -> None

let ctm cfg =
  let matrix = Ctm.create () in
  let order = Cfg.topological_order cfg in
  let position = Hashtbl.create 32 in
  List.iteri (fun i id -> Hashtbl.replace position id i) order;
  let reach = Hashtbl.create 32 in
  List.iter (fun (id, r) -> Hashtbl.replace reach id r) (reachability cfg);
  let sources =
    List.filter_map
      (fun id -> Option.map (fun s -> (id, s)) (node_symbol cfg id))
      (Cfg.node_ids cfg)
  in
  (* For a source call node x: propagate path weight through call-free
     nodes in topological order; weight stops at the next call-bearing
     node, where it contributes P^r_x * weight to the pair. *)
  let flow_from (x, sx) =
    if sx = Symbol.Exit then ()
    else begin
      let rx = Hashtbl.find reach x in
      if rx > 0.0 then begin
        let weight = Hashtbl.create 16 in
        let get id = match Hashtbl.find_opt weight id with Some w -> w | None -> 0.0 in
        let px = Hashtbl.find position x in
        Hashtbl.replace weight x 1.0;
        let suffix = List.filteri (fun i _ -> i >= px) order in
        List.iter
          (fun v ->
            let wv = get v in
            if wv > 0.0 then
              let stops = v <> x && node_symbol cfg v <> None in
              if stops then (
                match node_symbol cfg v with
                | Some sv -> Ctm.add matrix sx sv (rx *. wv)
                | None -> ())
              else
                let degree = Cfg.out_degree cfg v in
                List.iter
                  (fun s -> Hashtbl.replace weight s (get s +. (wv /. float_of_int degree)))
                  (Cfg.successors cfg v))
          suffix
      end
    end
  in
  List.iter flow_from sources;
  matrix

let ctms cfgs = List.map (fun (name, cfg) -> (name, ctm cfg)) cfgs
