module SS = Set.Make (String)

type stats = {
  functions : int;
  nfa_states : int;
  nfa_transitions : int;
  dfa_states : int;
  dfa_width : int;
  flat : bool;
}

type t = {
  nfa : Nfa.t;
  dfa : Dfa.t;
  entry : string;
  use_labels : bool;
  stats : stats;
}

exception Budget

(* Symbols an edge into [w] carries: the observable call symbol for a
   library-call node (plus the unlabeled variant for DB-output sites —
   the dynamic taint only labels a sink when tainted data actually
   reaches it), nothing (ε) otherwise. *)
let symbols_into cfg w =
  match Cfg.call_of_node cfg w with
  | Some site when not site.Cfg.is_user ->
      let s = Symbol.observable (Cfg.symbol_of_site ~id:w site) in
      if site.Cfg.label <> None then [ s; Symbol.strip_label s ] else [ s ]
  | Some _ | None -> []

(* Outgoing edges of a node: the DAG successors plus the recorded loop
   back edges (at runtime a loop body repeats). *)
let out_edges (cfg : Cfg.t) v =
  Cfg.successors cfg v
  @ List.filter_map (fun (src, dst) -> if src = v then Some dst else None)
      cfg.Cfg.back_edges

(* Lay one function body onto fresh states. [io] gives the (entry,
   exit) states this instance must use; [resolve] yields the callee
   instance for a user call. *)
let lay_function b cfgs ~budget name ~io:(entry_state, exit_state) ~resolve =
  let cfg = List.assoc name cfgs in
  let state_of = Hashtbl.create 32 in
  Hashtbl.replace state_of cfg.Cfg.entry entry_state;
  if Hashtbl.mem cfg.Cfg.nodes cfg.Cfg.exit then
    Hashtbl.replace state_of cfg.Cfg.exit exit_state;
  let state v =
    match Hashtbl.find_opt state_of v with
    | Some s -> s
    | None ->
        if Nfa.built_states b > budget then raise Budget;
        let s = Nfa.fresh b in
        Hashtbl.replace state_of v s;
        s
  in
  let connect src w =
    match symbols_into cfg w with
    | [] -> Nfa.add_eps b src (state w)
    | syms -> List.iter (fun sym -> Nfa.add_sym b src sym (state w)) syms
  in
  List.iter
    (fun v ->
      let outs = out_edges cfg v in
      match Cfg.call_of_node cfg v with
      | Some site when site.Cfg.is_user && List.mem_assoc site.Cfg.callee cfgs ->
          (* route through the callee: enter at the call, return to
             every successor of the site *)
          let ge, gx = resolve site.Cfg.callee in
          Nfa.add_eps b (state v) ge;
          List.iter (fun w -> connect gx w) outs
      | _ -> List.iter (fun w -> connect (state v) w) outs)
    (Cfg.node_ids cfg)

let live_funcs ~entry cfgs cg =
  if not (List.mem_assoc entry cfgs) then
    List.fold_left (fun acc (n, _) -> SS.add n acc) SS.empty cfgs
  else begin
    let seen = ref (SS.singleton entry) in
    let work = Queue.create () in
    Queue.add entry work;
    while not (Queue.is_empty work) do
      let f = Queue.pop work in
      List.iter
        (fun g ->
          if List.mem_assoc g cfgs && not (SS.mem g !seen) then begin
            seen := SS.add g !seen;
            Queue.add g work
          end)
        (Callgraph.callees cg f)
    done;
    !seen
  end

(* Instantiate the SCC cluster containing [name]: one shared (entry,
   exit) pair per member, intra-SCC calls wired to the shared states
   (conservative recursion collapse), calls into lower SCCs freshly
   inlined. Returns the member io map. *)
let rec instantiate_cluster b cfgs ~budget ~scc_of name =
  let members = scc_of name in
  let io = List.map (fun m -> (m, (Nfa.fresh b, Nfa.fresh b))) members in
  List.iter
    (fun m ->
      lay_function b cfgs ~budget m ~io:(List.assoc m io) ~resolve:(fun g ->
          match List.assoc_opt g io with
          | Some gio -> gio
          | None -> List.assoc g (instantiate_cluster b cfgs ~budget ~scc_of g)))
    members;
  io

(* The linear-size fallback: every live function gets exactly one
   shared instance — equivalent to treating the whole program as a
   single cluster. *)
let build_flat cfgs live ~entry =
  let b = Nfa.create_builder () in
  let names = List.filter (fun (n, _) -> SS.mem n live) cfgs |> List.map fst in
  let io = List.map (fun m -> (m, (Nfa.fresh b, Nfa.fresh b))) names in
  List.iter
    (fun m ->
      lay_function b cfgs ~budget:max_int m ~io:(List.assoc m io)
        ~resolve:(fun g -> List.assoc g io))
    names;
  let start =
    match List.assoc_opt entry io with
    | Some (e, _) -> e
    | None ->
        (* no entry function: every function is a root *)
        let root = Nfa.fresh b in
        List.iter (fun (_, (e, _)) -> Nfa.add_eps b root e) io;
        root
  in
  Nfa.finish b ~start

let build_inlined cfgs live ~entry ~scc_of ~budget =
  if not (List.mem_assoc entry cfgs) then raise Budget
  else begin
    let b = Nfa.create_builder () in
    let io = instantiate_cluster b cfgs ~budget ~scc_of entry in
    ignore live;
    Nfa.finish b ~start:(fst (List.assoc entry io))
  end

let build ?(entry = "main") ~use_labels ?(state_budget = 20_000) cfgs cg =
  let live = live_funcs ~entry cfgs cg in
  let scc_of =
    let sccs = Callgraph.sccs cg in
    fun name ->
      match List.find_opt (fun c -> List.mem name c) sccs with
      | Some c -> List.filter (fun m -> List.mem_assoc m cfgs) c
      | None -> [ name ]
  in
  let nfa, flat =
    match build_inlined cfgs live ~entry ~scc_of ~budget:state_budget with
    | nfa -> (nfa, false)
    | exception Budget -> (build_flat cfgs live ~entry, true)
  in
  let nfa = Nfa.restrict_reachable nfa in
  let nfa = if use_labels then nfa else Nfa.map_symbols Symbol.strip_label nfa in
  let dfa = Dfa.of_nfa nfa in
  {
    nfa;
    dfa;
    entry;
    use_labels;
    stats =
      {
        functions = SS.cardinal live;
        nfa_states = nfa.Nfa.nstates;
        nfa_transitions = Nfa.transitions nfa;
        dfa_states = Dfa.nstates dfa;
        dfa_width = Dfa.width dfa;
        flat;
      };
  }

let accepts t word =
  let word = List.map Symbol.observable word in
  let word = if t.use_labels then word else List.map Symbol.strip_label word in
  Dfa.accepts_factor t.dfa word

let stats_to_string s =
  Printf.sprintf
    "functions=%d nfa_states=%d nfa_transitions=%d dfa_states=%d alphabet=%d mode=%s"
    s.functions s.nfa_states s.nfa_transitions s.dfa_states s.dfa_width
    (if s.flat then "flat" else "inlined")
