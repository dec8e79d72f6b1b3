(* Static query-signature inference: abstract interpretation of SQL
   string construction over the CFGs, using the {!Strdom} template
   domain and the generic {!Dataflow} fixpoint engine. Every
   [pq_exec]/[mysql_query]/[*_prepare] call site gets a finite
   over-approximating set of canonical query signatures, an
   incompleteness flag, and — when attacker-controlled input reaches
   the SQL text itself rather than a bound parameter — an injection
   witness path. *)

module Ast = Applang.Ast
module Libspec = Applang.Libspec
module SS = Set.Make (String)
module SM = Map.Make (String)

type site = {
  func : string;
  block : int;
  callee : string;
  prepare : bool;  (* *_prepare text; executions are parameter-bound *)
  signatures : string list;  (* sorted canonical signatures *)
  statements : Sqldb.Sql_ast.statement list;
  (* parsed form of every distinct render, for column-level consumers *)
  open_ : bool;  (* the set may under-approximate *)
  malformed : bool;  (* a constant query text failed to parse *)
  injectable : string list option;  (* taint witness path, source first *)
}

type result = {
  sites : site list;
  signatures : string list;  (* union over sites, sorted *)
  complete : bool;  (* no site is open *)
}

(* SQL text argument index per builtin (both take [conn; sql]). *)
let sql_arg = function
  | "pq_exec" | "mysql_query" -> Some (1, false)
  | "pq_prepare" | "mysql_prepare" -> Some (1, true)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Abstract evaluation of applang expressions into string templates.
   Mirrors [Runtime.Interp.eval]/[Builtins.dispatch]: [+] concatenates
   via [to_display] whenever a string is involved, int-valued builtins
   produce digit holes (which sanitize injection taint), untrusted
   input builtins produce tainted string holes. *)

let int_hole origin = Strdom.hole ~digits:true ~tainted:false ~origin ()

(* Parse a printf-style format into literal chunks and argument slots,
   matching [Builtins.format_args]. *)
let format_pieces fmt =
  let out = ref [] and buf = Buffer.create (String.length fmt) in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := `Lit (Buffer.contents buf) :: !out;
      Buffer.clear buf
    end
  in
  let n = String.length fmt in
  let i = ref 0 in
  while !i < n do
    if fmt.[!i] = '%' && !i + 1 < n then begin
      (match fmt.[!i + 1] with
      | 's' | 'd' | 'f' ->
          flush ();
          out := `Arg :: !out
      | '%' -> Buffer.add_char buf '%'
      | c ->
          Buffer.add_char buf '%';
          Buffer.add_char buf c);
      i := !i + 2
    end
    else begin
      Buffer.add_char buf fmt.[!i];
      incr i
    end
  done;
  flush ();
  List.rev !out

let rec eval ~summary_of env (e : Ast.expr) : Strdom.value =
  let sub x = eval ~summary_of env x in
  match e with
  | Ast.Int n -> Strdom.const_int n
  | Ast.Str s -> Strdom.const_str s
  | Ast.Bool b -> Strdom.const_other (if b then "true" else "false")
  | Ast.Null -> Strdom.const_other "NULL"
  | Ast.Var x -> ( match SM.find_opt x env with Some v -> v | None -> Strdom.bottom)
  | Ast.Binop ((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.And | Ast.Or), _, _)
  | Ast.Unop (Ast.Not, _) ->
      Strdom.bool_val
  | Ast.Binop (Ast.Add, a, b) -> (
      let va = sub a and vb = sub b in
      match (Strdom.const_int_opt va, Strdom.const_int_opt vb) with
      | Some x, Some y -> Strdom.const_int (x + y)
      | _ ->
          if Strdom.definitely_int va && Strdom.definitely_int vb then int_hole "+"
          else Strdom.concat va vb)
  | Ast.Binop ((Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod), a, b) -> (
      let va = sub a and vb = sub b in
      match (Strdom.const_int_opt va, Strdom.const_int_opt vb) with
      | Some x, Some y -> (
          match e with
          | Ast.Binop (Ast.Sub, _, _) -> Strdom.const_int (x - y)
          | Ast.Binop (Ast.Mul, _, _) -> Strdom.const_int (x * y)
          | Ast.Binop (Ast.Div, _, _) when y <> 0 -> Strdom.const_int (x / y)
          | Ast.Binop (Ast.Mod, _, _) when y <> 0 -> Strdom.const_int (x mod y)
          | _ -> int_hole "arith")
      | _ -> int_hole "arith")
  | Ast.Unop (Ast.Neg, a) -> (
      match Strdom.const_int_opt (sub a) with
      | Some n -> Strdom.const_int (-n)
      | None -> int_hole "neg")
  | Ast.Index (a, _) ->
      (* DB row cell: unknown string, taint follows the row value. *)
      Strdom.str_hole ~tainted:(Strdom.tainted (sub a)) ~origin:"row-index" ()
  | Ast.Call (name, args) -> eval_call ~summary_of env name args

and eval_call ~summary_of env name args =
  let sub x = eval ~summary_of env x in
  let arg i = match List.nth_opt args i with Some a -> sub a | None -> Strdom.bottom in
  let any_arg_tainted () = List.exists (fun a -> Strdom.tainted (sub a)) args in
  match summary_of name with
  | Some (s : Taint.summary) ->
      (* User function: value unknown; taint from the injection-polarity
         summary. *)
      let tainted =
        s.Dataflow.const
        || List.exists (fun a -> Strdom.tainted (sub a)) (Dataflow.flowing_args s args)
      in
      Strdom.hole ~tainted ~origin:(name ^ "()") ()
  | None -> (
      match name with
      | "scanf" | "getline" | "fgets" | "http_method" | "http_path" | "http_param" ->
          Strdom.str_hole ~tainted:true ~origin:name ()
      | "scanf_int" | "atoi" | "strlen" | "strcmp" | "rand_int" | "pq_ntuples"
      | "pq_nfields" | "mysql_num_rows" | "mysql_num_fields" | "pq_result_status"
      | "mysql_query" | "system" | "fclose" | "http_respond" | "http_write" | "printf"
      | "fprintf" | "puts" | "fputs" | "fputc" | "fwrite" | "write" ->
          int_hole name
      | "feof" | "str_contains" | "http_next_request" -> Strdom.bool_val
      | "to_string" | "strcpy" -> Strdom.as_string (arg 0)
      | "strcat" -> Strdom.concat (arg 0) (arg 1)
      | "substr" -> Strdom.str_hole ~tainted:(Strdom.tainted (arg 0)) ~origin:"substr" ()
      | "snprintf" ->
          (* Truncation can cut a literal mid-way: opaque. *)
          Strdom.str_hole ~tainted:(any_arg_tainted ()) ~origin:"snprintf" ()
      | "sprintf" -> eval_sprintf ~summary_of env args
      | "pq_getvalue" -> Strdom.str_hole ~tainted:false ~origin:"pq_getvalue" ()
      | "exit" -> Strdom.bottom
      | _ ->
          if Libspec.is_builtin name && String.length name > 4 && String.sub name 0 4 = "lib_"
          then Strdom.const_int 0
          else
            (* Handles (connections, results, cursors, files, ...) and
               anything unknown: an untainted opaque value. *)
            Strdom.hole ~tainted:false ~origin:name ())

and eval_sprintf ~summary_of env args =
  match args with
  | [] -> Strdom.const_str ""
  | fmt :: rest -> (
      match eval ~summary_of env fmt with
      | Strdom.Templates [ { Strdom.pieces = [ Strdom.Lit f ]; _ } ] ->
          let rest = ref (List.map (eval ~summary_of env) rest) in
          let take () =
            match !rest with
            | [] -> Strdom.const_str "" (* missing argument renders empty *)
            | v :: tl ->
                rest := tl;
                v
          in
          List.fold_left
            (fun acc piece ->
              match piece with
              | `Lit s -> Strdom.concat acc (Strdom.const_str s)
              | `Arg -> Strdom.concat acc (take ()))
            (Strdom.const_str "") (format_pieces f)
      | Strdom.Templates [ { Strdom.pieces = []; _ } ] -> Strdom.const_str ""
      | fmt_v ->
          let tainted =
            Strdom.tainted fmt_v
            || List.exists (fun a -> Strdom.tainted (eval ~summary_of env a)) rest
          in
          Strdom.str_hole ~tainted ~origin:"sprintf" ())

(* ------------------------------------------------------------------ *)
(* The per-function dataflow. *)

module Env = struct
  type t = Strdom.value SM.t

  let bottom = SM.empty
  let join = SM.union (fun _ a b -> Some (Strdom.join a b))
  let equal = SM.equal Strdom.equal
end

module Flow = Dataflow.Make (Env)

let solve_function ~summary_of ~entry_flags (cfg : Cfg.t) =
  let entry_env =
    List.fold_left
      (fun (env, i) p ->
        let tainted = i < Array.length entry_flags && entry_flags.(i) in
        ( SM.add p (Strdom.hole ~tainted ~origin:("param " ^ p) ()) env,
          i + 1 ))
      (SM.empty, 0) cfg.Cfg.params
    |> fst
  in
  let transfer (n : Cfg.node) env =
    match n.Cfg.event with
    | Cfg.E_bind (x, e) -> SM.add x (Strdom.bind_origin x (eval ~summary_of env e)) env
    | Cfg.E_entry | Cfg.E_exit | Cfg.E_call _ | Cfg.E_cond _ | Cfg.E_return _ | Cfg.E_join ->
        env
  in
  Flow.solve cfg ~entry:entry_env ~transfer

let analyze_site ~summary_of env (id : int) (site : Cfg.call_site) func arg_idx prepare =
  let v =
    match List.nth_opt site.Cfg.args arg_idx with
    | Some e -> eval ~summary_of env e
    | None -> Strdom.bottom
  in
  let sigs = ref SS.empty
  and stmts = ref []
  and opened = ref false
  and malformed = ref false in
  List.iter
    (fun (r : Strdom.rendering) ->
      if not r.Strdom.exact then opened := true;
      List.iter
        (fun s ->
          match Sqldb.Sql_parser.parse s with
          | Ok stmt ->
              let sg = Sqldb.Sql_pp.signature stmt in
              if not (SS.mem sg !sigs) then begin
                sigs := SS.add sg !sigs;
                stmts := stmt :: !stmts
              end
          | Error _ ->
              if r.Strdom.constant then malformed := true
              else
                (* A hole or repetition hid the real statement shape. *)
                opened := true)
        r.Strdom.strings)
    (Strdom.render v);
  {
    func;
    block = id;
    callee = site.Cfg.callee;
    prepare;
    signatures = SS.elements !sigs;
    statements = List.rev !stmts;
    open_ = !opened;
    malformed = !malformed;
    injectable = Strdom.witness v;
  }

let infer_sites ~entry cfgs =
  let taint =
    Taint.analyze ~lib_taint:Libspec.untrusted_taint_of ~label_sinks:false cfgs
  in
  let summaries = Hashtbl.create 16 in
  List.iter (fun (name, s) -> Hashtbl.replace summaries name s) taint.Taint.summaries;
  let entry_taint = Hashtbl.create 16 in
  List.iter (fun (name, a) -> Hashtbl.replace entry_taint name a) taint.Taint.entry_taint;
  let summary_of name = Hashtbl.find_opt summaries name in
  let live = Callgraph.reachable cfgs ~entry in
  let sites = ref [] in
  List.iter
    (fun (name, cfg) ->
      if SS.mem name live then begin
        let sol = solve_function ~summary_of ~entry_flags:(Hashtbl.find entry_taint name) cfg in
        List.iter
          (fun (id, site) ->
            match sql_arg site.Cfg.callee with
            | Some (arg_idx, prepare) when Flow.reachable sol id ->
                sites :=
                  analyze_site ~summary_of (Flow.input sol id) id site name arg_idx prepare
                  :: !sites
            | Some _ | None -> ())
          (Cfg.call_nodes cfg)
      end)
    cfgs;
  let sites = List.sort compare !sites in
  let signatures =
    List.fold_left
      (fun acc (s : site) -> List.fold_left (fun a x -> SS.add x a) acc s.signatures)
      SS.empty sites
    |> SS.elements
  in
  { sites; signatures; complete = List.for_all (fun (s : site) -> not s.open_) sites }

(* Every site comes from a call node [sql_arg] accepts: CFGs with none
   infer the empty result without the taint fixpoint. *)
let infer ?(entry = "main") cfgs =
  let query_site (_, site) = sql_arg site.Cfg.callee <> None in
  if List.exists (fun (_, cfg) -> List.exists query_site (Cfg.call_nodes cfg)) cfgs then
    infer_sites ~entry cfgs
  else { sites = []; signatures = []; complete = true }
