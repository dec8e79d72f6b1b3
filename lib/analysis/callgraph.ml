module SM = Map.Make (String)
module SS = Set.Make (String)

type t = {
  order : string list;  (** program order *)
  callees : string list SM.t;
  callers : string list SM.t;
}

let build cfgs =
  let order = List.map fst cfgs in
  let callees_of (_, cfg) =
    List.filter_map
      (fun (_, site) -> if site.Cfg.is_user then Some site.Cfg.callee else None)
      (Cfg.call_nodes cfg)
    |> List.sort_uniq compare
  in
  let callees =
    List.fold_left (fun acc (name, _ as entry) -> SM.add name (callees_of entry) acc) SM.empty cfgs
  in
  let callers =
    SM.fold
      (fun caller cs acc ->
        List.fold_left
          (fun acc callee ->
            let cur = match SM.find_opt callee acc with Some l -> l | None -> [] in
            SM.add callee (cur @ [ caller ]) acc)
          acc cs)
      callees SM.empty
  in
  { order; callees; callers }

let functions t = t.order

let callees t name = match SM.find_opt name t.callees with Some l -> l | None -> []
let callers t name = match SM.find_opt name t.callers with Some l -> l | None -> []

let reachable cfgs ~entry =
  if not (List.mem_assoc entry cfgs) then SS.of_list (List.map fst cfgs)
  else
    let cg = build cfgs in
    let rec visit seen f =
      if SS.mem f seen then seen else List.fold_left visit (SS.add f seen) (callees cg f)
    in
    visit SS.empty entry

(* Tarjan's algorithm; the natural output order (a component is emitted
   only after everything it reaches) is exactly leaf-first. *)
let sccs t =
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let next = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !next;
    Hashtbl.replace lowlink v !next;
    incr next;
    stack := v :: !stack;
    Hashtbl.replace on_stack v true;
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.find_opt on_stack w = Some true then
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (callees t v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            Hashtbl.replace on_stack w false;
            if w = v then w :: acc else pop (w :: acc)
      in
      components := pop [] :: !components
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) t.order;
  List.rev !components

let recursive_partners t name =
  let component =
    match List.find_opt (fun c -> List.mem name c) (sccs t) with
    | Some c -> c
    | None -> [ name ]
  in
  let others = List.filter (fun f -> f <> name) component in
  if List.mem name (callees t name) then others @ [ name ] else others
