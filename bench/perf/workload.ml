(* The four workloads: which application each trains on, and the seeded
   stream of tagged wire items each one offers the monitor.

   Training always uses the application's fixed training set, so setup
   time compares across seeds; the seed drives everything in the
   stream: the held-out test-case inputs, which sessions are attacks
   and how sessions interleave. *)

module Transport = Sut.Transport

type name = Bank_burst | Gen_wide | Bank_paced | Bank_tcp

let all = [ Bank_burst; Gen_wide; Bank_paced; Bank_tcp ]

let to_string = function
  | Bank_burst -> "bank-burst"
  | Gen_wide -> "gen-wide"
  | Bank_paced -> "bank-paced"
  | Bank_tcp -> "bank-tcp"

let of_string s = List.find_opt (fun w -> to_string w = s) all

type delivery = Burst | Paced | Tcp

let delivery = function
  | Bank_burst | Gen_wide -> Burst
  | Bank_paced -> Paced
  | Bank_tcp -> Tcp

(* --- applications and their training --------------------------------- *)

type app = {
  app : Adprom.Pipeline.app;
  params : Adprom.Profile.params;
  db : bool;  (** learns a query profile and arms the query axis *)
}

(* A handful of Baum-Welch rounds: enough for every held-out normal
   window to score Normal, and few enough that a run can set up three
   times. The model size, and with it the forward-pass cost, does not
   depend on the round count. *)
let bank_app () =
  {
    app = Dataset.Ca_banking.app ();
    params = { Adprom.Pipeline.adprom_params with Adprom.Profile.max_rounds = 4 };
    db = true;
  }

(* A generated program with a 150-call alphabet, sized so that held-out
   sessions produce more distinct windows than the verdict memo holds,
   and with more call sites than [max_states], so training runs the
   hidden-state clustering. *)
let gen_spec =
  { Dataset.Proggen.bash_like with Dataset.Proggen.functions = 24; statements_per_function = 7 }

let gen_app () =
  {
    app = Dataset.Sir.app4 ~cases:120 ~spec:gen_spec ();
    params =
      {
        Adprom.Pipeline.adprom_params with
        Adprom.Profile.max_rounds = 4;
        patience = 2;
        max_states = 100;
      };
    db = false;
  }

let app_of = function Gen_wide -> gen_app () | Bank_burst | Bank_paced | Bank_tcp -> bank_app ()

type trained = {
  sys : Sut.system;
  collect_s : float;
  train_s : float;
  qsig_s : float;
}

(* Analysis + training-trace collection, HMM training and query-profile
   learning, each timed and wrapped in a span. *)
let train a =
  let dataset, collect_s =
    Stats.time (fun () -> Span.with_ "pipeline.collect" (fun () -> Adprom.Pipeline.collect a.app))
  in
  let profile, train_s =
    Stats.time (fun () ->
        Span.with_ "pipeline.train" (fun () -> Adprom.Pipeline.train ~params:a.params dataset))
  in
  let analysis = dataset.Adprom.Pipeline.analysis in
  let qsig, qsig_s =
    Stats.time (fun () ->
        Span.with_ "qsig.learn" (fun () ->
            if a.db then
              Some (Sut.learn_qsig (Adprom.Pipeline.collect_outcomes ~analysis a.app))
            else None))
  in
  { sys = { Sut.profile; analysis; qsig }; collect_s; train_s; qsig_s }

(* --- the stream --------------------------------------------------------- *)

type session = {
  id : int;
  calls : Runtime.Collector.event array;
  queries : (string * int) list;  (** executed log: bound SQL, result rows *)
  attack : string option;
  call_pos : int array;  (** stream index of each call, in session order *)
  query_pos : int array;  (** stream index of each query record *)
}

type stream = {
  sessions : session array;  (** indexed by session id *)
  items : Transport.item array;
  calls : int;  (** call events among [items] *)
}

type shape = {
  normal : int;
  attacks : (string * Attack.Scenario.t) list;
      (** per attack session, round-robin over this list *)
  attack_sessions : int;
}

let execs = [ "pq_exec"; "pq_exec_prepared"; "mysql_query"; "mysql_stmt_execute" ]

(* A session's wire items: its calls in order, each executed-query
   record right after the call that ran it. *)
let session_items id (calls : Runtime.Collector.event array) queries =
  let pending = ref queries in
  let items = ref [] in
  Array.iter
    (fun (ev : Runtime.Collector.event) ->
      items := Transport.Call { Transport.session = id; event = ev } :: !items;
      match !pending with
      | (sql, rows) :: rest when List.mem (Analysis.Symbol.name ev.Runtime.Collector.symbol) execs
        ->
          items := Transport.Query { Transport.q_session = id; rows; sql } :: !items;
          pending := rest
      | _ -> ())
    calls;
  List.iter
    (fun (sql, rows) ->
      items := Transport.Query { Transport.q_session = id; rows; sql } :: !items)
    !pending;
  Array.of_list (List.rev !items)

(* Uniform interleaving: each step takes the next item of a session
   drawn uniformly among those with items left. *)
let interleave rng (per_session : Transport.item array array) =
  let live =
    Array.of_list
      (List.filter
         (fun s -> Array.length per_session.(s) > 0)
         (List.init (Array.length per_session) Fun.id))
  in
  let nlive = ref (Array.length live) in
  let cursor = Array.make (Array.length per_session) 0 in
  let out = ref [] in
  while !nlive > 0 do
    let i = Mlkit.Rng.int rng !nlive in
    let s = live.(i) in
    out := per_session.(s).(cursor.(s)) :: !out;
    cursor.(s) <- cursor.(s) + 1;
    if cursor.(s) = Array.length per_session.(s) then begin
      live.(i) <- live.(!nlive - 1);
      decr nlive
    end
  done;
  Array.of_list (List.rev !out)

(* Sub-seeds for independent draws, kept clear of the fixed training
   seeds of the applications. *)
let derive seed k = 1_000_003 * (k + 1) + seed

(* Run a test case under an attack scenario: the malicious variant of
   the app, interpreted under its own analysis (the attacker ships a
   modified program; detection keeps the clean profile). *)
let scenario_runner a =
  let analyses = Hashtbl.create 4 in
  fun (scenario : Attack.Scenario.t) tc ->
    let app', patches, rewriter =
      Attack.Scenario.apply scenario { a.app with Adprom.Pipeline.test_cases = [ tc ] }
    in
    let analysis =
      match Hashtbl.find_opt analyses scenario.Attack.Scenario.id with
      | Some an -> an
      | None ->
          let an = Adprom.Pipeline.analyze_app app' in
          Hashtbl.replace analyses scenario.Attack.Scenario.id an;
          an
    in
    match app'.Adprom.Pipeline.test_cases with
    | [ tc' ] -> Adprom.Pipeline.run_case ~patches ?query_rewriter:rewriter ~analysis app' tc'
    | _ -> invalid_arg "attack scenario changed the number of test cases"

(* The generated program's attack: [main] starts issuing a library call
   the program makes elsewhere but never from [main] (the shape of
   Attack 2), so windows holding it are out of context. *)
let gen_attack (profile : Adprom.Profile.t) =
  let callee =
    match
      Array.find_map
        (function
          | Analysis.Symbol.Lib { name; _ } when String.starts_with ~prefix:"lib_" name ->
              Some name
          | _ -> None)
        profile.Adprom.Profile.alphabet
    with
    | Some name -> name
    | None -> invalid_arg "generated program has no lib_* call"
  in
  {
    Attack.Scenario.id = "gen-main-call";
    description = "main issues " ^ callee;
    vector =
      Attack.Scenario.Source_change
        (fun p ->
          Attack.Mutate.insert_in_function p ~func:"main" ~at:0
            [ Applang.Ast.Expr (Applang.Ast.Call (callee, [ Applang.Ast.Int 0 ])) ]);
  }

(* Sessions per workload and their attack share. The burst workloads
   keep attacks rare (1%, few incidents each) so verdict memo hits and
   forward passes dominate; the paced workload carries 2%, half of
   them tautology injections whose every window is an incident. *)
let shape w (tr : trained) =
  let scenario (c : Dataset.Ca_attacks.case) = (c.Dataset.Ca_attacks.label, c.Dataset.Ca_attacks.scenario) in
  match w with
  | Bank_burst | Bank_tcp ->
      { normal = 2000; attack_sessions = 20; attacks = [ scenario (Dataset.Ca_attacks.attack_1_1 ()) ] }
  | Bank_paced ->
      {
        normal = 500;
        attack_sessions = 10;
        attacks =
          [ scenario (Dataset.Ca_attacks.attack_1_1 ()); scenario (Dataset.Ca_attacks.attack5 ()) ];
      }
  | Gen_wide ->
      let s = gen_attack tr.sys.Sut.profile in
      { normal = 3000; attack_sessions = 30; attacks = [ (s.Attack.Scenario.id, s) ] }

let cases_of = function
  | Gen_wide ->
      fun ~count ~seed ->
        Dataset.Proggen.test_cases { gen_spec with Dataset.Proggen.seed } ~count
  | Bank_burst | Bank_paced | Bank_tcp -> Dataset.Ca_banking.test_cases

let stream w ~seed a (tr : trained) =
  let shape = shape w tr and cases = cases_of w in
  let run_attack = scenario_runner a in
  let sys = tr.sys in
  let normal =
    List.map
      (fun tc ->
        let trace, o = Adprom.Pipeline.run_case ~analysis:sys.Sut.analysis a.app tc in
        (trace, o.Runtime.Interp.query_log, None))
      (cases ~count:shape.normal ~seed:(derive seed 1))
  in
  let attack_cases = Array.of_list (cases ~count:shape.attack_sessions ~seed:(derive seed 2)) in
  let kinds = Array.of_list shape.attacks in
  let attacks =
    List.init shape.attack_sessions (fun i ->
        let label, scenario = kinds.(i mod Array.length kinds) in
        let trace, (o : Runtime.Interp.outcome) = run_attack scenario attack_cases.(i) in
        (trace, o.Runtime.Interp.query_log, Some label))
  in
  let raw = Array.of_list (normal @ attacks) in
  let per_session =
    Array.mapi (fun id (calls, queries, _) -> session_items id calls queries) raw
  in
  let items = interleave (Mlkit.Rng.create (derive seed 3)) per_session in
  let call_pos = Array.map (fun _ -> ref []) raw and query_pos = Array.map (fun _ -> ref []) raw in
  Array.iteri
    (fun i -> function
      | Transport.Call e ->
          let r = call_pos.(e.Transport.session) in
          r := i :: !r
      | Transport.Query q ->
          let r = query_pos.(q.Transport.q_session) in
          r := i :: !r)
    items;
  let rev_array r = Array.of_list (List.rev !r) in
  let sessions =
    Array.mapi
      (fun id (calls, queries, attack) ->
        {
          id;
          calls;
          queries;
          attack;
          call_pos = rev_array call_pos.(id);
          query_pos = rev_array query_pos.(id);
        })
      raw
  in
  let calls = Array.fold_left (fun acc (s : session) -> acc + Array.length s.calls) 0 sessions in
  { sessions; items; calls }
