module type LATTICE = sig
  type t

  val bottom : t
  val join : t -> t -> t
  val equal : t -> t -> bool
end

module Make (L : LATTICE) = struct
  type solution = {
    ins : (int, L.t) Hashtbl.t;
    outs : (int, L.t) Hashtbl.t;
    visited : (int, unit) Hashtbl.t;
  }

  let get tbl id = match Hashtbl.find_opt tbl id with Some v -> v | None -> L.bottom

  let solve (cfg : Cfg.t) ~entry ~transfer =
    let sol =
      { ins = Hashtbl.create 32; outs = Hashtbl.create 32; visited = Hashtbl.create 32 }
    in
    let edges id =
      Cfg.successors cfg id
      @ List.filter_map (fun (src, dst) -> if src = id then Some dst else None) cfg.Cfg.back_edges
    in
    Hashtbl.replace sol.ins cfg.Cfg.entry entry;
    let work = Queue.create () in
    Queue.add cfg.Cfg.entry work;
    while not (Queue.is_empty work) do
      let id = Queue.pop work in
      Hashtbl.replace sol.visited id ();
      let out = transfer (Cfg.node cfg id) (get sol.ins id) in
      Hashtbl.replace sol.outs id out;
      List.iter
        (fun succ ->
          let cur = get sol.ins succ in
          let joined = L.join cur out in
          (* A node is processed at least once even when the incoming
             value is already stable: facts can be generated by the
             transfer, not only propagated. *)
          if (not (L.equal joined cur)) || not (Hashtbl.mem sol.visited succ) then begin
            Hashtbl.replace sol.ins succ joined;
            Queue.add succ work
          end)
        (edges id)
    done;
    sol

  let input sol id = get sol.ins id
  let output sol id = get sol.outs id
  let reachable sol id = Hashtbl.mem sol.visited id
end

type 'v summary = { const : 'v; params : bool array }

let flowing_args s args = List.filteri (fun i _ -> i < Array.length s.params && s.params.(i)) args

module type VALUE = sig
  include LATTICE

  val marker : t
  val reached : t -> bool
end

module type PROCEDURE = sig
  type value
  type solution

  val solve :
    summary_of:(string -> value summary option) ->
    Cfg.t ->
    (string * value) list ->
    solution

  val eval_at :
    summary_of:(string -> value summary option) -> solution -> int -> Applang.Ast.expr -> value
end

module Summaries (V : VALUE) (P : PROCEDURE with type value = V.t) = struct
  type t = {
    summaries : (string, V.t summary) Hashtbl.t;
    (* each function's parameter values, joined over the call sites
       seen so far *)
    entries : (string, V.t array) Hashtbl.t;
  }

  let summary_of t name = Hashtbl.find_opt t.summaries name

  let solve_under t (cfg : Cfg.t) entry =
    let bound = List.filteri (fun i _ -> i < Array.length entry) cfg.Cfg.params in
    P.solve ~summary_of:(summary_of t) cfg (List.mapi (fun i p -> (p, entry.(i))) bound)

  let eval_at t sol id e = P.eval_at ~summary_of:(summary_of t) sol id e

  (* the join of what the function's returns yield *)
  let returned t (cfg : Cfg.t) entry =
    let sol = solve_under t cfg entry in
    List.fold_left
      (fun acc id ->
        match (Cfg.node cfg id).Cfg.event with
        | Cfg.E_return (Some e) -> V.join acc (eval_at t sol id e)
        | Cfg.E_return None | Cfg.E_entry | Cfg.E_exit | Cfg.E_call _ | Cfg.E_bind _
        | Cfg.E_cond _ | Cfg.E_join ->
            acc)
      V.bottom (Cfg.node_ids cfg)

  (* [const] binds no parameter. Each [params] bit seeds its parameter
     alone: reachability of the return value is disjunctive over the
     parameters, so single-parameter runs compose exactly. *)
  let summarize t ~per_param (cfg : Cfg.t) =
    let const = returned t cfg [||] in
    let n = List.length cfg.Cfg.params in
    let reached seeded =
      V.reached (returned t cfg (Array.init n (fun j -> if seeded j then V.marker else V.bottom)))
    in
    if per_param then { const; params = Array.init n (fun i -> reached (( = ) i)) }
    else { const; params = Array.make n (reached (fun _ -> true)) }

  let solve ~per_param cfgs =
    let t = { summaries = Hashtbl.create 16; entries = Hashtbl.create 16 } in
    List.iter
      (fun (name, cfg) ->
        let n = List.length cfg.Cfg.params in
        Hashtbl.replace t.summaries name { const = V.bottom; params = Array.make n false };
        Hashtbl.replace t.entries name (Array.make n V.bottom))
      cfgs;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (name, cfg) ->
          let s = summarize t ~per_param cfg and old = Hashtbl.find t.summaries name in
          if not (V.equal s.const old.const && s.params = old.params) then begin
            Hashtbl.replace t.summaries name s;
            changed := true
          end;
          (* join the arguments of every user call into the callee's entry *)
          let sol = solve_under t cfg (Hashtbl.find t.entries name) in
          List.iter
            (fun (id, site) ->
              match Hashtbl.find_opt t.entries site.Cfg.callee with
              | Some entry when site.Cfg.is_user ->
                  List.iteri
                    (fun i arg ->
                      if i < Array.length entry then begin
                        let joined = V.join entry.(i) (eval_at t sol id arg) in
                        if not (V.equal joined entry.(i)) then begin
                          entry.(i) <- joined;
                          changed := true
                        end
                      end)
                    site.Cfg.args
              | Some _ | None -> ())
            (Cfg.call_nodes cfg))
        cfgs
    done;
    t

  let solve_entry t (cfg : Cfg.t) = solve_under t cfg (Hashtbl.find t.entries cfg.Cfg.func)

  let sorted tbl = Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl [] |> List.sort compare
  let summaries t = sorted t.summaries
  let entries t = sorted t.entries
end
