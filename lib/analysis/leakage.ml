(* Interprocedural information-flow analysis from query results to
   output sinks: which (table.column, cardinality) provenance atoms can
   a value reaching a {!Libspec.is_sink} call carry? Atom sets are
   seeded at the query-execution sites {!Qstatic} inferred (select
   lists, [*]-expansion against the declared schema, cardinality from
   LIMIT / key-equality / IN arity) and propagated across functions by
   {!Dataflow.Summaries}, the solver {!Taint} also instantiates; a final
   labeling pass under the converged entry assumptions collects the
   per-program leakage summary. *)

module Ast = Applang.Ast
module Libspec = Applang.Libspec
module Sql_ast = Sqldb.Sql_ast
module SM = Map.Make (String)

type sink = {
  func : string;
  block : int;  (* CFG node id of the sink call *)
  callee : string;
  atoms : Flowdom.atom list;
}

type result = {
  sinks : sink list;
  complete : bool;  (* mirrors Qstatic: no open query site *)
}

(* ------------------------------------------------------------------ *)
(* Seeding: provenance atoms of one query-execution site. *)

let statement_card ~schema (stmt : Sql_ast.statement) =
  match stmt with
  | Sql_ast.Select { projection; table; where; limit; _ } ->
      let bounds = ref [] in
      let bound c = bounds := c :: !bounds in
      (match projection with
      | Sql_ast.Count_star | Sql_ast.Aggregate _ -> bound Flowdom.C_one
      | Sql_ast.Star | Sql_ast.Columns _ -> ());
      (match limit with Some n -> bound (Flowdom.card_of_arity n) | None -> ());
      (match where with
      | Some w ->
          let is_key c = Libspec.Schema.is_key schema ~table ~column:c in
          List.iter
            (fun c -> if is_key c then bound Flowdom.C_one)
            (Sql_ast.eq_bound_columns w);
          List.iter
            (fun (c, k) -> if is_key c then bound (Flowdom.card_of_arity k))
            (Sql_ast.in_bound_columns w)
      | None -> ());
      List.fold_left Flowdom.card_min Flowdom.C_many !bounds
  | Sql_ast.Create _ | Sql_ast.Insert _ | Sql_ast.Update _ | Sql_ast.Delete _ ->
      Flowdom.C_many

let atoms_of_statement ~schema ~origin (stmt : Sql_ast.statement) =
  match stmt with
  | Sql_ast.Select { projection; table; _ } ->
      let card = statement_card ~schema stmt in
      let cols =
        match projection with
        | Sql_ast.Columns cs -> cs
        | Sql_ast.Star -> (
            (* expand against the declared schema; an undeclared table
               keeps the whole-row "*" source *)
            match Libspec.Schema.columns schema table with
            | Some (_ :: _ as cs) -> cs
            | Some [] | None -> [ "*" ])
        | Sql_ast.Count_star -> []
        | Sql_ast.Aggregate (_, c) -> [ c ]
      in
      List.fold_left
        (fun acc column ->
          Flowdom.union acc
            (Flowdom.singleton ~origin (Flowdom.Col { table; column }) card))
        Flowdom.empty cols
  | Sql_ast.Create _ | Sql_ast.Insert _ | Sql_ast.Update _ | Sql_ast.Delete _ ->
      (* write statements return status, not row data *)
      Flowdom.empty

let site_seed ~schema (s : Qstatic.site) =
  let origin = [ Printf.sprintf "%s(%s#%d)" s.Qstatic.callee s.Qstatic.func s.Qstatic.block ] in
  let base =
    List.fold_left
      (fun acc stmt -> Flowdom.union acc (atoms_of_statement ~schema ~origin stmt))
      Flowdom.empty s.Qstatic.statements
  in
  if s.Qstatic.open_ || s.Qstatic.malformed then
    (* the site can execute statements the renderer did not see: data
       of unknown provenance rides along *)
    Flowdom.union base
      (Flowdom.singleton ~origin
         (Flowdom.Opaque
            (Printf.sprintf "%s@%s#%d" s.Qstatic.callee s.Qstatic.func s.Qstatic.block))
         Flowdom.C_many)
  else base

(* ------------------------------------------------------------------ *)
(* Abstract evaluation of applang expressions into atom sets. *)

let rec eval ~summary_of ~site_atoms env (e : Ast.expr) : Flowdom.t =
  let sub x = eval ~summary_of ~site_atoms env x in
  match e with
  | Ast.Int _ | Ast.Str _ | Ast.Bool _ | Ast.Null -> Flowdom.empty
  | Ast.Var x -> ( match SM.find_opt x env with Some v -> v | None -> Flowdom.empty)
  | Ast.Binop (_, a, b) -> Flowdom.union (sub a) (sub b)
  | Ast.Unop (_, a) -> sub a
  | Ast.Index (a, b) ->
      (* a row cell carries the row's atoms *)
      Flowdom.union (sub a) (sub b)
  | Ast.Call (name, args) -> (
      let arg i =
        match List.nth_opt args i with Some a -> sub a | None -> Flowdom.empty
      in
      let args_union () =
        List.fold_left (fun acc a -> Flowdom.union acc (sub a)) Flowdom.empty args
      in
      match summary_of name with
      | Some s ->
          let from_params =
            List.fold_left
              (fun acc a -> Flowdom.union acc (sub a))
              Flowdom.empty (Dataflow.flowing_args s args)
          in
          Flowdom.union s.Dataflow.const
            (Flowdom.bind_origin (name ^ "()") from_params)
      | None -> (
          match name with
          | "pq_exec" | "pq_prepare" | "mysql_prepare" -> (
              (* direct execution returns the result; a prepare returns
                 a handle that carries the statement's atoms to its
                 executions. Sites Qstatic never saw are statically
                 unreachable: nothing flows. *)
              match site_atoms e with Some v -> v | None -> Flowdom.empty)
          | "mysql_query" ->
              (* returns a status int; the result set surfaces through
                 the connection at [mysql_store_result] (see the E_call
                 transfer) *)
              Flowdom.empty
          | "pq_exec_prepared" -> arg 1
          | "mysql_stmt_execute" ->
              (* the prepared handle (arg 1) carries its statement's
                 atoms; the connection (arg 0) rides along *)
              Flowdom.union (arg 0) (arg 1)
          | "mysql_store_result" | "mysql_fetch_row" | "pq_getvalue" -> arg 0
          | "strcpy" | "strcat" | "substr" | "to_string" | "sprintf" | "snprintf"
          | "atoi" ->
              args_union ()
          | _ -> Flowdom.empty))

(* ------------------------------------------------------------------ *)
(* The per-function dataflow. *)

module Env = struct
  type t = Flowdom.t SM.t

  let bottom = SM.empty
  let join = SM.union (fun _ a b -> Some (Flowdom.union a b))
  let equal = SM.equal Flowdom.equal
end

module Flow = Dataflow.Make (Env)

let intra ~summary_of ~site_atoms_of (cfg : Cfg.t) entry_env =
  (* physical identity of the call sub-term resolves an expression to
     its own E_call node, and through it to the seeded site atoms *)
  let block_of = Cfg.Sites.create () in
  List.iter
    (fun (id, (site : Cfg.call_site)) ->
      Cfg.Sites.register block_of site.Cfg.call_expr id)
    (Cfg.call_nodes cfg);
  let site_atoms e =
    match Cfg.Sites.block_of block_of e with
    | Some id -> site_atoms_of cfg.Cfg.func id
    | None -> None
  in
  let transfer (n : Cfg.node) env =
    match n.Cfg.event with
    | Cfg.E_bind (x, e) ->
        SM.add x
          (Flowdom.bind_origin x (eval ~summary_of ~site_atoms env e))
          env
    | Cfg.E_call site when site.Cfg.callee = "mysql_query" -> (
        (* the connection accumulates the atoms of every statement sent
           through it; [mysql_store_result conn] reads them back *)
        match (site_atoms_of cfg.Cfg.func n.Cfg.id, site.Cfg.args) with
        | Some v, Ast.Var c :: _ ->
            let prev =
              match SM.find_opt c env with Some p -> p | None -> Flowdom.empty
            in
            SM.add c (Flowdom.union prev (Flowdom.bind_origin c v)) env
        | _ -> env)
    | Cfg.E_entry | Cfg.E_exit | Cfg.E_call _ | Cfg.E_cond _ | Cfg.E_return _
    | Cfg.E_join ->
        env
  in
  (Flow.solve cfg ~entry:entry_env ~transfer, site_atoms)

module Provenance = struct
  include Flowdom

  let bottom = empty
  let join = union

  (* The single atom of the per-parameter runs; the NUL byte keeps its
     source disjoint from every printable Opaque name. *)
  let marker = singleton (Opaque "\000param") C_one
  let reached = mem (Opaque "\000param")
end

(* ------------------------------------------------------------------ *)

let analyze ?schema ~(static : Qstatic.result) cfgs =
  let schema =
    match schema with Some s -> s | None -> Libspec.Schema.empty ()
  in
  (* (func, block) -> seeded atoms of the query-execution site *)
  let seeds = Hashtbl.create 16 in
  List.iter
    (fun (s : Qstatic.site) ->
      Hashtbl.replace seeds (s.Qstatic.func, s.Qstatic.block) (site_seed ~schema s))
    static.Qstatic.sites;
  let site_atoms_of func id = Hashtbl.find_opt seeds (func, id) in
  let module P = struct
    type value = Flowdom.t
    type solution = Flow.solution * (Ast.expr -> Flowdom.t option)

    let solve ~summary_of cfg params =
      intra ~summary_of ~site_atoms_of cfg
        (List.fold_left (fun env (p, v) -> SM.add p (Flowdom.bind_origin p v) env) SM.empty params)

    let eval_at ~summary_of (sol, site_atoms) id e =
      eval ~summary_of ~site_atoms (Flow.input sol id) e
  end in
  let module S = Dataflow.Summaries (Provenance) (P) in
  let fix = S.solve ~per_param:true cfgs in
  let summary_of = S.summary_of fix in
  (* Final labeling pass: join argument flows at every sink call. *)
  let sinks = ref [] in
  List.iter
    (fun (_name, cfg) ->
      let ((flow, _) as sol) = S.solve_entry fix cfg in
      List.iter
        (fun (id, (site : Cfg.call_site)) ->
          if Libspec.is_sink site.Cfg.callee && Flow.reachable flow id then begin
            let atoms =
              List.fold_left
                (fun acc a -> Flowdom.union acc (P.eval_at ~summary_of sol id a))
                Flowdom.empty site.Cfg.args
            in
            if not (Flowdom.is_empty atoms) then
              sinks :=
                {
                  func = cfg.Cfg.func;
                  block = id;
                  callee = site.Cfg.callee;
                  atoms = Flowdom.atoms atoms;
                }
                :: !sinks
          end)
        (Cfg.call_nodes cfg))
    cfgs;
  {
    sinks = List.sort compare !sinks;
    complete = static.Qstatic.complete;
  }

let capabilities r =
  List.map
    (fun s ->
      ( s.block,
        Printf.sprintf "%s <- %s" s.callee
          (String.concat ", " (List.map Flowdom.atom_to_string s.atoms)) ))
    r.sinks
