module Ast = Applang.Ast
module Libspec = Applang.Libspec
module SS = Set.Make (String)

type facts = {
  entry : string;
  symbols : Symbol.Set.t;
  pairs : (string * Symbol.t) list;
}

(* --- shared helpers --------------------------------------------------------- *)

let rec vars acc (e : Ast.expr) =
  match e with
  | Ast.Int _ | Ast.Str _ | Ast.Bool _ | Ast.Null -> acc
  | Ast.Var v -> SS.add v acc
  | Ast.Binop (_, a, b) -> vars (vars acc a) b
  | Ast.Unop (_, a) -> vars acc a
  | Ast.Index (a, b) -> vars (vars acc a) b
  | Ast.Call (_, args) -> List.fold_left vars acc args

let uses_of_event = function
  | Cfg.E_bind (_, e) -> vars SS.empty e
  | Cfg.E_cond e -> vars SS.empty e
  | Cfg.E_return (Some e) -> vars SS.empty e
  | Cfg.E_call site -> List.fold_left vars SS.empty site.Cfg.args
  | Cfg.E_entry | Cfg.E_exit | Cfg.E_join | Cfg.E_return None -> SS.empty

let describe = function
  | Cfg.E_call site -> Printf.sprintf "call to `%s`" site.Cfg.callee
  | Cfg.E_bind (x, _) -> Printf.sprintf "assignment to `%s`" x
  | Cfg.E_cond _ -> "branch"
  | Cfg.E_return _ -> "return"
  | Cfg.E_entry -> "entry"
  | Cfg.E_exit -> "exit"
  | Cfg.E_join -> "join"

(* A condition that is statically always true: the only constant forms
   AppLang programs spell loop-forever with. *)
let const_true = function Ast.Bool true -> true | Ast.Int n -> n <> 0 | _ -> false

(* The may-be-uninitialized analysis: a variable is in the set when some
   path from the entry reaches the node without assigning it. Plain
   union lattice — the must-assigned complement. *)
module VarFlow = Dataflow.Make (struct
  type t = SS.t

  let bottom = SS.empty
  let join = SS.union
  let equal = SS.equal
end)

(* --- per-function checks ---------------------------------------------------- *)

let dead_code_diags (cfg : Cfg.t) dom add =
  List.iter
    (fun id ->
      if not (Dominator.reachable dom id) then
        match (Cfg.node cfg id).Cfg.event with
        | Cfg.E_entry | Cfg.E_exit | Cfg.E_join -> ()
        | ev ->
            add
              (Diag.make ~func:cfg.Cfg.func ~block:id Diag.Warning ~code:"dead-code"
                 (Printf.sprintf "unreachable code: %s" (describe ev))))
    (Cfg.node_ids cfg)

let undefined_callee_diags (cfg : Cfg.t) add =
  List.iter
    (fun (id, site) ->
      if (not site.Cfg.is_user) && not (Libspec.is_builtin site.Cfg.callee) then
        add
          (Diag.make ~func:cfg.Cfg.func ~block:id Diag.Error ~code:"undefined-callee"
             (Printf.sprintf "call to undefined function `%s`" site.Cfg.callee)))
    (Cfg.call_nodes cfg)

let use_before_init_diags (cfg : Cfg.t) add =
  let params = SS.of_list cfg.Cfg.params in
  (* Only variables the function itself assigns count: a name never
     bound anywhere is ambient state (e.g. [conn]), not a defect. *)
  let locals =
    Hashtbl.fold
      (fun _ n acc ->
        match n.Cfg.event with
        | Cfg.E_bind (x, _) when not (SS.mem x params) -> SS.add x acc
        | _ -> acc)
      cfg.Cfg.nodes SS.empty
  in
  if not (SS.is_empty locals) then begin
    let transfer (n : Cfg.node) env =
      match n.Cfg.event with Cfg.E_bind (x, _) -> SS.remove x env | _ -> env
    in
    let sol = VarFlow.solve cfg ~entry:locals ~transfer in
    let reported = Hashtbl.create 8 in
    List.iter
      (fun id ->
        let suspect =
          SS.inter
            (SS.inter (uses_of_event (Cfg.node cfg id).Cfg.event) locals)
            (VarFlow.input sol id)
        in
        SS.iter
          (fun v ->
            if not (Hashtbl.mem reported v) then begin
              Hashtbl.replace reported v ();
              add
                (Diag.make ~func:cfg.Cfg.func ~block:id Diag.Warning
                   ~code:"use-before-init"
                   (Printf.sprintf "variable `%s` may be used before initialization" v))
            end)
          suspect)
      (Cfg.node_ids cfg)
  end

let no_exit_loop_diags (cfg : Cfg.t) dom add =
  List.iter
    (fun (l : Loops.loop) ->
      if Dominator.reachable dom l.Loops.header then begin
        let header_always_true =
          match (Cfg.node cfg l.Loops.header).Cfg.event with
          | Cfg.E_cond e -> const_true e
          | _ -> false
        in
        (* The DAG stores a fictional fall-through edge from each latch
           to the after-join ("the body runs once"); at runtime a latch
           goes back to the header, so those edges are not ways out. *)
        let real_exits =
          List.filter (fun (src, _) -> not (List.mem src l.Loops.latches)) l.Loops.exits
        in
        let exits_only_from_header =
          List.for_all (fun (src, _) -> src = l.Loops.header) real_exits
        in
        (* Conservative: flag only when the sole way out is the loop
           condition itself and that condition is constantly true. A
           [break] or [return] in the body adds an exit edge from a
           non-header, non-latch node and suppresses the finding. *)
        if real_exits = [] || (header_always_true && exits_only_from_header) then
          add
            (Diag.make ~func:cfg.Cfg.func ~block:l.Loops.header Diag.Warning
               ~code:"no-exit-loop" "loop has no reachable exit")
      end)
    (Loops.analyze cfg)

let check_function (cfg : Cfg.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let dom = Dominator.compute cfg in
  dead_code_diags cfg dom add;
  undefined_callee_diags cfg add;
  use_before_init_diags cfg add;
  no_exit_loop_diags cfg dom add;
  List.sort Diag.compare !diags

(* --- whole-program checks --------------------------------------------------- *)

(* Injection findings from the static query inference: call sites where
   attacker-controlled input reaches the SQL text itself rather than a
   bound parameter, reported with the taint witness path. *)
let injection_diags (static_queries : Qstatic.result) =
  List.filter_map
    (fun (s : Qstatic.site) ->
      match s.Qstatic.injectable with
      | None -> None
      | Some path ->
          Some
            (Diag.make ~func:s.Qstatic.func ~block:s.Qstatic.block Diag.Warning
               ~code:"sql-injectable-site"
               (Printf.sprintf
                  "untrusted input reaches SQL structure in the text passed to `%s` \
                   (witness: %s); bind it as a query parameter instead"
                  s.Qstatic.callee
                  (String.concat " -> " path))))
    static_queries.Qstatic.sites

let check_program ?(entry = "main") ?static_queries cfgs =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  if not (List.mem_assoc entry cfgs) then
    add
      (Diag.make Diag.Warning ~code:"no-entry"
         (Printf.sprintf "no entry function `%s`" entry))
  else begin
    let live = Callgraph.reachable cfgs ~entry in
    List.iter
      (fun (name, _) ->
        if not (SS.mem name live) then
          add
            (Diag.make ~func:name Diag.Warning ~code:"unreachable-function"
               (Printf.sprintf "function `%s` is never called from `%s`" name entry)))
      cfgs
  end;
  List.iter (fun (_, cfg) -> List.iter add (check_function cfg)) cfgs;
  let static_queries =
    match static_queries with Some r -> r | None -> Qstatic.infer ~entry cfgs
  in
  List.iter add (injection_diags static_queries);
  Diag.dedupe (List.sort Diag.compare !diags)

(* --- static facts for profile coverage -------------------------------------- *)

let facts ?(entry = "main") cfgs =
  let live = Callgraph.reachable cfgs ~entry in
  let symbols = ref Symbol.Set.empty in
  let pairs = ref [] in
  List.iter
    (fun (name, cfg) ->
      if SS.mem name live then begin
        let dom = Dominator.compute cfg in
        List.iter
          (fun (id, site) ->
            if Dominator.reachable dom id && not site.Cfg.is_user then begin
              let sym = Symbol.observable (Cfg.symbol_of_site ~id site) in
              symbols := Symbol.Set.add sym !symbols;
              pairs := (name, sym) :: !pairs
            end)
          (Cfg.call_nodes cfg)
      end)
    cfgs;
  { entry; symbols = !symbols; pairs = List.sort_uniq compare !pairs }

(* Trained signatures outside a complete static set cannot come from
   this program (error); statically emittable signatures the profile
   never saw are coverage gaps (hint — any finite training run
   under-samples the emittable set). *)
let check_qsig_coverage ~(static_queries : Qstatic.result) ~trained_signatures =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let sq = static_queries in
  if sq.Qstatic.complete then
    List.iter
      (fun s ->
        if not (List.mem s sq.Qstatic.signatures) then
          add
            (Diag.make Diag.Error ~code:"qsig-impossible-signature"
               (Printf.sprintf
                  "trained query signature `%s` cannot be produced by any \
                   reachable call site"
                  s)))
      trained_signatures;
  List.iter
    (fun s ->
      if not (List.mem s trained_signatures) then
        add
          (Diag.make Diag.Hint ~code:"qsig-uncovered-signature"
             (Printf.sprintf
                "the program can emit query signature `%s`, never observed in \
                 training"
                s)))
    sq.Qstatic.signatures;
  List.sort Diag.compare !diags

(* Leakage findings: the static summary's sink atoms judged under a
   column-sensitivity policy. A secret column reaching a sink is an
   error; an internal column with no cardinality bound is a warning;
   data whose provenance the analysis could not resolve (open query
   sites, undeclared column lists) is a hint. Witness paths ride in
   both the message (greppable) and [related] (SARIF locations). *)
let check_leakage ~(policy : Libspec.Sensitivity.t) ~(summary : Leakage.result) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  List.iter
    (fun (s : Leakage.sink) ->
      List.iter
        (fun (a : Flowdom.atom) ->
          let witness_text =
            match a.Flowdom.origin with
            | [] -> ""
            | _ ->
                Printf.sprintf " (witness: %s)" (Flowdom.witness_to_string a)
          in
          let related =
            match a.Flowdom.origin with [] -> [] | path -> path
          in
          let mk severity code msg =
            add
              (Diag.make ~func:s.Leakage.func ~block:s.Leakage.block ~related
                 severity ~code (msg ^ witness_text))
          in
          match a.Flowdom.src with
          | Flowdom.Opaque what ->
              mk Diag.Hint "leak-unknown-provenance"
                (Printf.sprintf
                   "data of unknown provenance (<%s>) can reach `%s`" what
                   s.Leakage.callee)
          | Flowdom.Col { table; column } -> (
              (match Libspec.Sensitivity.level policy ~table ~column with
              | Libspec.Sensitivity.Secret ->
                  mk Diag.Error "leak-sensitive-column"
                    (Printf.sprintf
                       "secret column %s.%s can reach `%s` at cardinality %s"
                       table column s.Leakage.callee
                       (Flowdom.card_to_string a.Flowdom.card))
              | Libspec.Sensitivity.Internal
                when a.Flowdom.card = Flowdom.C_many ->
                  mk Diag.Warning "leak-unbounded-cardinality"
                    (Printf.sprintf
                       "internal column %s.%s can reach `%s` with no \
                        cardinality bound (%s); bound the query with LIMIT \
                        or a key predicate"
                       table column s.Leakage.callee
                       (Flowdom.card_to_string a.Flowdom.card))
              | Libspec.Sensitivity.Internal | Libspec.Sensitivity.Public -> ());
              if column = "*" then
                mk Diag.Hint "leak-unknown-provenance"
                  (Printf.sprintf
                     "whole rows of `%s` (no declared column list) can reach \
                      `%s`"
                     table s.Leakage.callee)))
        s.Leakage.atoms)
    summary.Leakage.sinks;
  Diag.dedupe (List.sort Diag.compare !diags)

let check_coverage ?automaton facts ~alphabet ~known_pairs =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let observable_only = List.filter (function Symbol.Entry | Symbol.Exit -> false | _ -> true) in
  let alphabet = observable_only alphabet in
  List.iter
    (fun sym ->
      if not (Symbol.Set.mem sym facts.symbols) then
        add
          (Diag.make Diag.Error ~code:"profile-symbol-unreachable"
             (Printf.sprintf "profile alphabet symbol `%s` is not statically reachable"
                (Symbol.to_string sym))))
    alphabet;
  List.iter
    (fun (caller, sym) ->
      if not (List.mem (caller, sym) facts.pairs) then
        add
          (Diag.make ~func:caller Diag.Error ~code:"profile-pair-impossible"
             (Printf.sprintf "profile pair (%s, %s) is statically impossible" caller
                (Symbol.to_string sym))))
    known_pairs;
  Symbol.Set.iter
    (fun sym ->
      if not (List.exists (Symbol.equal sym) alphabet) then
        add
          (Diag.make Diag.Warning ~code:"uncovered-symbol"
             (Printf.sprintf
                "statically reachable call `%s` was never observed in training"
                (Symbol.to_string sym))))
    facts.symbols;
  List.iter
    (fun (caller, sym) ->
      if not (List.mem (caller, sym) known_pairs) then
        add
          (Diag.make ~func:caller Diag.Warning ~code:"uncovered-pair"
             (Printf.sprintf
                "statically possible pair (%s, %s) was never observed in training"
                caller (Symbol.to_string sym))))
    facts.pairs;
  (* The n-gram generalization of the pair check: every call sequence
     the trained model supports must be a factor of the call-sequence
     automaton's language, else the model was trained on traces this
     program cannot emit. *)
  (match automaton with
  | None -> ()
  | Some (accepts, model_ngrams) ->
      List.iter
        (fun ngram ->
          let ngram = observable_only ngram in
          if ngram <> [] && not (accepts ngram) then
            (* warning, not error: unlike the alphabet and known-pair
               checks (whose facts were directly observed in training),
               n-gram support is inferred from the trained weights, and
               Baum-Welch smoothing can push mass above the support
               threshold for sequences training never produced — a
               modeling artifact, not proof of a program mismatch *)
            add
              (Diag.make Diag.Warning ~code:"profile-ngram-impossible"
                 ("model-supported sequence ["
                 ^ String.concat "; " (List.map Symbol.to_string ngram)
                 ^ "] is statically impossible")))
        model_ngrams);
  List.sort Diag.compare !diags
