(* The interprocedural call-sequence automaton (Analysis.Seqauto) and
   its runtime gate: unit tests for factor membership, call-site
   inlining context-sensitivity, loop repetition, branch pruning
   precision, label views and the budget fallback — plus QCheck2
   properties: soundness (every window an interpreter run produces is
   accepted), NFA/DFA agreement, DFA minimality on random NFAs, and the
   enforce gate only rejecting windows the reference detector already
   finds anomalous — and the construction's golden output and
   allocation budget. *)

module Seqauto = Analysis.Seqauto
module Nfa = Analysis.Nfa
module Dfa = Analysis.Dfa
module Symbol = Analysis.Symbol
module Analyzer = Analysis.Analyzer
module Parser = Applang.Parser
module Scoring = Adprom.Scoring
module Detector = Adprom.Detector
module Window = Adprom.Window
module Pipeline = Adprom.Pipeline
module Profile = Adprom.Profile
module Profile_check = Adprom.Profile_check
module Sessions = Adprom.Sessions
module Daemon = Adprom_service.Daemon
module Replay = Adprom_service.Replay
module Transport = Adprom_service.Transport

let build_src ?entry ?(use_labels = true) ?state_budget ?(pruned = true) src =
  let a = Analyzer.analyze ?entry (Parser.parse_program src) in
  let cfgs = if pruned then a.Analyzer.pruned_cfgs else a.Analyzer.cfgs in
  (a, Seqauto.build ?entry ~use_labels ?state_budget cfgs a.Analyzer.callgraph)

let syms names = List.map Symbol.lib names

let check_accepts auto expected names =
  Alcotest.(check bool)
    (String.concat " " names)
    expected
    (Seqauto.accepts auto (syms names))

(* --- factor membership and call-site inlining --------------------------- *)

let interproc_src =
  {|
    fun main() { a_call(); f(); b_call(); f(); c_call(); }
    fun f() { x_call(); }
  |}

let test_factor_basics () =
  let _, auto = build_src interproc_src in
  check_accepts auto true [];
  check_accepts auto true [ "a_call" ];
  check_accepts auto true [ "a_call"; "x_call" ];
  check_accepts auto true [ "x_call"; "b_call" ];
  check_accepts auto true [ "a_call"; "x_call"; "b_call"; "x_call"; "c_call" ];
  (* order matters, and x_call is mandatory between a_call and b_call *)
  check_accepts auto false [ "a_call"; "b_call" ];
  check_accepts auto false [ "b_call"; "a_call" ];
  (* out-of-alphabet symbol *)
  check_accepts auto false [ "zzz_alien" ]

let test_inlining_context_sensitivity () =
  let _, auto = build_src interproc_src in
  Alcotest.(check bool) "inlined, not flat" false auto.Seqauto.stats.Seqauto.flat;
  (* the first f() instance returns to b_call, the second to c_call:
     with per-call-site copies the cross-context factor is rejected *)
  check_accepts auto false [ "a_call"; "x_call"; "c_call" ]

let test_budget_fallback_is_coarser_but_sound () =
  let _, auto = build_src ~state_budget:1 interproc_src in
  Alcotest.(check bool) "flat fallback" true auto.Seqauto.stats.Seqauto.flat;
  (* one shared instance merges the two return points: the
     cross-context factor is now (conservatively) accepted ... *)
  check_accepts auto true [ "a_call"; "x_call"; "c_call" ];
  (* ... and everything genuinely possible stays accepted *)
  check_accepts auto true [ "a_call"; "x_call"; "b_call"; "x_call"; "c_call" ];
  check_accepts auto false [ "b_call"; "a_call" ]

let test_loop_repetition () =
  let _, auto =
    build_src
      {|
        fun main() {
          let v = atoi(gets());
          open_call();
          while (v < 3) { step_call(); v = v + 1; }
          close_call();
        }
      |}
  in
  check_accepts auto true [ "step_call"; "step_call"; "step_call" ];
  check_accepts auto true [ "open_call"; "close_call" ];
  check_accepts auto true [ "open_call"; "step_call"; "step_call"; "close_call" ];
  check_accepts auto false [ "close_call"; "step_call" ];
  check_accepts auto false [ "step_call"; "open_call" ]

let test_pruning_precision () =
  let src =
    {|
      fun main() {
        let flag = 0;
        a_call();
        if (flag == 1) { secret_call(); }
        b_call();
      }
    |}
  in
  let _, pruned = build_src src in
  let _, unpruned = build_src ~pruned:false src in
  (* on the raw CFG the dead arm is still a path ... *)
  Alcotest.(check bool)
    "unpruned accepts the dead call" true
    (Seqauto.accepts unpruned (syms [ "secret_call" ]));
  (* ... the feasibility prepass removes it from the language *)
  Alcotest.(check bool)
    "pruned rejects the dead call" false
    (Seqauto.accepts pruned (syms [ "secret_call" ]));
  check_accepts pruned true [ "a_call"; "b_call" ]

let test_label_views () =
  let src =
    {|
      fun main() {
        let c = db_connect("pg");
        let r = pq_exec(c, "SELECT name FROM t");
        printf("%s", pq_getvalue(r, 0, 0));
        done_call();
      }
    |}
  in
  let _, labeled = build_src src in
  let _, stripped = build_src ~use_labels:false src in
  Alcotest.(check bool)
    "labeled view has a DB-output symbol" true
    (List.exists Symbol.is_labeled labeled.Seqauto.nfa.Nfa.alphabet);
  Alcotest.(check bool)
    "stripped view has none" false
    (List.exists Symbol.is_labeled stripped.Seqauto.nfa.Nfa.alphabet);
  (* the dynamic taint decides labels at runtime, so the labeled view
     accepts both spellings of the sink *)
  Alcotest.(check bool)
    "plain printf accepted" true
    (Seqauto.accepts labeled (syms [ "pq_getvalue"; "printf"; "done_call" ]));
  let labeled_printf =
    List.find Symbol.is_labeled labeled.Seqauto.nfa.Nfa.alphabet
  in
  Alcotest.(check bool)
    "labeled printf accepted" true
    (Seqauto.accepts labeled [ Symbol.lib "pq_getvalue"; labeled_printf ])

(* --- QCheck properties --------------------------------------------------- *)

(* Random structured programs with input-driven branching: the static
   pass cannot fold `v` away, the interpreter picks arms per input. *)
let random_program seed =
  let rng = Mlkit.Rng.create seed in
  let pool = [| "lib_a"; "lib_b"; "lib_c"; "printf"; "puts" |] in
  let rec stmts depth budget =
    if budget <= 0 then []
    else
      let s =
        match Mlkit.Rng.int rng (if depth > 2 then 3 else 6) with
        | 0 | 1 -> Printf.sprintf "%s(\"x\");" (Mlkit.Rng.pick rng pool)
        | 2 -> "v = v + 1;"
        | 3 ->
            Printf.sprintf "if (v > %d) { %s } else { %s }" (Mlkit.Rng.int rng 4)
              (String.concat " " (stmts (depth + 1) (budget / 2)))
              (String.concat " " (stmts (depth + 1) (budget / 2)))
        | 4 ->
            Printf.sprintf "if (v == %d) { %s }" (Mlkit.Rng.int rng 4)
              (String.concat " " (stmts (depth + 1) (budget / 2)))
        | _ ->
            Printf.sprintf "while (v < %d) { %s v = v + 1; }" (Mlkit.Rng.int rng 4)
              (String.concat " " (stmts (depth + 1) (budget / 2)))
      in
      s :: stmts depth (budget - 1)
  in
  let main =
    "fun main() { let v = atoi(gets()); "
    ^ String.concat " " (stmts 0 5)
    ^ " helper(); "
    ^ String.concat " " (stmts 0 2)
    ^ " }"
  in
  let helper =
    "fun helper() { let v = atoi(gets()); " ^ String.concat " " (stmts 0 3) ^ " }"
  in
  main ^ "\n" ^ helper

let run_trace analysis inputs =
  let engine = Sqldb.Engine.create () in
  let tc = Runtime.Testcase.make ~input:inputs "seqauto-prop" in
  let trace, _outcome = Runtime.Interp.collect_trace ~analysis ~engine tc in
  Array.to_list
    (Array.map (fun (e : Runtime.Collector.event) -> e.Runtime.Collector.symbol) trace)

(* Soundness: whatever sequence a run actually emits — and therefore
   every window of it — is in the automaton's factor language. *)
let prop_trace_soundness =
  QCheck2.Test.make ~name:"interpreter traces are accepted (soundness)" ~count:60
    QCheck2.Gen.(pair (int_range 0 10_000) (int_bound 5))
    (fun (seed, input) ->
      let src = random_program seed in
      let a = Analyzer.analyze (Parser.parse_program src) in
      let auto =
        Seqauto.build ~use_labels:true a.Analyzer.pruned_cfgs a.Analyzer.callgraph
      in
      let word =
        run_trace a [ string_of_int input; string_of_int (5 - input) ]
      in
      let sub =
        (* an arbitrary inner factor must be accepted too *)
        let n = List.length word in
        if n <= 2 then word
        else List.filteri (fun i _ -> i >= 1 && i < n - 1) word
      in
      Seqauto.accepts auto word && Seqauto.accepts auto sub)

(* The minimized DFA agrees with the NFA it was compiled from, on and
   off the alphabet. *)
let prop_nfa_dfa_agree =
  QCheck2.Test.make ~name:"DFA agrees with NFA on random words" ~count:40
    QCheck2.Gen.(
      triple (int_range 0 10_000) (int_range 1 1000)
        (list_size (int_range 0 8) (int_range 0 20)))
    (fun (seed, wseed, picks) ->
      let src = random_program seed in
      let a = Analyzer.analyze (Parser.parse_program src) in
      let auto = Seqauto.build ~use_labels:true a.Analyzer.pruned_cfgs a.Analyzer.callgraph in
      let alpha = Array.of_list (Seqauto.(auto.nfa).Nfa.alphabet) in
      let m = Array.length alpha in
      let word =
        List.map
          (fun p ->
            (* every ~7th pick is an out-of-alphabet symbol *)
            if (p + wseed) mod 7 = 0 then Symbol.lib "zzz_alien"
            else alpha.((p + wseed) mod max 1 m))
          picks
      in
      Nfa.accepts_factor Seqauto.(auto.nfa) word
      = Dfa.accepts_factor Seqauto.(auto.dfa) word)

(* --- construction: fixed output, minimality, allocation ------------------ *)

(* The gen-wide benchmark program: a generated bash-like program
   narrowed to 24 functions of 7 statements (a 150-call alphabet). *)
let gen_wide_app =
  lazy
    (let spec =
       {
         Dataset.Proggen.bash_like with
         Dataset.Proggen.functions = 24;
         statements_per_function = 7;
       }
     in
     Dataset.Sir.app4 ~cases:120 ~spec ())

let gen_wide_analysis =
  lazy
    (Analyzer.analyze
       (Parser.parse_program (Lazy.force gen_wide_app).Pipeline.source))

(* What [Profile_check.automaton] compiles for a default-params profile:
   the pruned CFGs, the default entry, the params' label view. *)
let default_automaton (a : Analyzer.t) =
  Seqauto.build ~use_labels:Pipeline.adprom_params.Profile.use_labels
    a.Analyzer.pruned_cfgs a.Analyzer.callgraph

(* Digests of the DFAs the straightforward (quadratic-allocation)
   construction produced: construction may get cheaper, but the start
   state, the state numbering and every transition must not change. *)
let test_golden_digests () =
  let digest a =
    Digest.to_hex (Digest.string (Dfa.to_dot (default_automaton a).Seqauto.dfa))
  in
  let banking =
    Analyzer.analyze
      (Parser.parse_program (Dataset.Ca_banking.app ()).Pipeline.source)
  in
  Alcotest.(check string) "banking" "726aa538c9066700971eed8c99315761" (digest banking);
  Alcotest.(check string) "gen-wide" "8c14b311d5f8f69e752a0d20020a6da2"
    (digest (Lazy.force gen_wide_analysis))

(* Build cost is bounded by the automaton, not by splitters × states:
   a single-domain build's major-heap allocation stays well under the
   ≈53 M words the quadratic construction took on this program, and
   its minor-heap allocation well under the 6.9 M words that per-splitter
   lists and sorts took (the flat-array minimizer allocates none). *)
let test_build_allocation () =
  let a = Lazy.force gen_wide_analysis in
  let minor = Gc.minor_words () and major = (Gc.quick_stat ()).Gc.major_words in
  let auto = default_automaton a in
  let minor = Gc.minor_words () -. minor
  and major = (Gc.quick_stat ()).Gc.major_words -. major in
  Printf.printf "gen-wide build: %s, %.0f minor words, %.0f major words\n"
    (Seqauto.stats_to_string auto.Seqauto.stats) minor major;
  Alcotest.(check bool)
    (Printf.sprintf "major words %.0f under 4 M" major)
    true (major < 4e6);
  Alcotest.(check bool)
    (Printf.sprintf "minor words %.0f at most 1 M" minor)
    true (minor <= 1e6)

(* A daemon's start compiles the gate and vets the profile against it:
   on gen-wide, with the benchmark's training parameters, that costs at
   most 2 M minor words in the calling domain (9.0 M with the list
   minimizer, the per-member bitset walk and nested-list bigrams). *)
let test_daemon_create_allocation () =
  let ds = Pipeline.collect (Lazy.force gen_wide_app) in
  let params =
    { Pipeline.adprom_params with Profile.max_rounds = 4; patience = 2; max_states = 100 }
  in
  let profile = Pipeline.train ~params ds in
  let before = Gc.minor_words () in
  let daemon =
    Daemon.create ~shards:1 ~vet_against:ds.Pipeline.analysis
      ~static_gate:Daemon.Gate_explain profile
  in
  let words = Gc.minor_words () -. before in
  ignore (Daemon.drain daemon);
  Printf.printf "gen-wide Daemon.create: %.0f minor words\n" words;
  Alcotest.(check bool)
    (Printf.sprintf "minor words %.0f at most 2 M" words)
    true (words <= 2e6)

(* Random NFAs straight from the builder: ε-cycles, self-loops,
   unreachable states and a three-letter alphabet all arise. *)
let tiny_alphabet = [| "a"; "b"; "c" |]

let gen_nfa =
  QCheck2.Gen.(
    let* n = int_range 1 10 in
    let state = int_bound (n - 1) in
    let* eps = list_size (int_bound (2 * n)) (pair state state) in
    let* sym =
      list_size (int_bound (3 * n))
        (triple state (int_bound (Array.length tiny_alphabet - 1)) state)
    in
    let* start = state in
    return (n, eps, sym, start))

let nfa_of (n, eps, sym, start) =
  let b = Nfa.create_builder () in
  for _ = 1 to n do
    ignore (Nfa.fresh b)
  done;
  List.iter (fun (s, d) -> Nfa.add_eps b s d) eps;
  List.iter (fun (s, c, d) -> Nfa.add_sym b s (Symbol.lib tiny_alphabet.(c)) d) sym;
  Nfa.finish b ~start

(* Naive Moore refinement over the live states plus the dead state
   (numbered [nstates]); returns the number of equivalence classes. *)
let moore_classes dfa =
  let n = Dfa.nstates dfa and w = Dfa.width dfa in
  let succ s c = if s = n then n else match Dfa.step dfa s c with -1 -> n | d -> d in
  let cls = Array.init (n + 1) (fun s -> if s = n then 1 else 0) in
  let rec refine count =
    let ids = Hashtbl.create 16 in
    let next =
      Array.init (n + 1) (fun s ->
          let key = (cls.(s), List.init w (fun c -> cls.(succ s c))) in
          match Hashtbl.find_opt ids key with
          | Some id -> id
          | None ->
              let id = Hashtbl.length ids in
              Hashtbl.replace ids key id;
              id)
    in
    let count' = Hashtbl.length ids in
    Array.blit next 0 cls 0 (n + 1);
    if count' = count then count else refine count'
  in
  refine (if n = 0 then 1 else 2)

let reachable_count dfa =
  let n = Dfa.nstates dfa in
  let seen = Array.make n false in
  let rec go s =
    if s >= 0 && not seen.(s) then begin
      seen.(s) <- true;
      for c = 0 to Dfa.width dfa - 1 do
        go (Dfa.step dfa s c)
      done
    end
  in
  go (Dfa.start dfa);
  Array.fold_left (fun k b -> if b then k + 1 else k) 0 seen

let prop_random_nfa_minimal =
  QCheck2.Test.make ~name:"DFA of a random NFA: same factor language, minimal"
    ~count:300
    QCheck2.Gen.(
      pair gen_nfa
        (list_size (int_range 1 12)
           (list_size (int_range 0 8) (int_bound (Array.length tiny_alphabet)))))
    (fun (spec, words) ->
      let nfa = nfa_of spec in
      let dfa = Dfa.of_nfa nfa in
      let word picks =
        List.map
          (fun p ->
            (* the last pick is a symbol outside the alphabet *)
            Symbol.lib
              (if p < Array.length tiny_alphabet then tiny_alphabet.(p) else "zzz_alien"))
          picks
      in
      List.for_all
        (fun picks ->
          let w = word picks in
          Nfa.accepts_factor nfa w = Dfa.accepts_factor dfa w)
        words
      && moore_classes dfa = Dfa.nstates dfa + 1
      && reachable_count dfa = Dfa.nstates dfa)

(* --- the runtime gate on a trained profile ------------------------------- *)

let fixture =
  lazy
    (let app =
       {
         Pipeline.name = "seqauto";
         source =
           {|
             fun main() {
               let db = db_connect("pg");
               let n = atoi(gets());
               for (let i = 0; i < n; i = i + 1) {
                 let r = pq_exec(db, "SELECT name FROM t");
                 let k = pq_ntuples(r);
                 for (let j = 0; j < k; j = j + 1) { printf("%s\n", pq_getvalue(r, j, 0)); }
               }
             }
           |};
         dbms = "PostgreSQL";
         setup_db =
           (fun e ->
             ignore (Sqldb.Engine.exec e "CREATE TABLE t (name)");
             ignore (Sqldb.Engine.exec e "INSERT INTO t VALUES ('a'), ('b')"));
         test_cases =
           List.init 8 (fun i ->
               Runtime.Testcase.make
                 ~input:[ string_of_int (1 + (i mod 4)) ]
                 (Printf.sprintf "c%d" i));
       }
     in
     let ds = Pipeline.collect app in
     let profile = Pipeline.train ds in
     (ds, profile, Profile_check.automaton profile ds.Pipeline.analysis))

(* Tampered real windows: position 0 gets an unknown caller (so the
   reference detector is guaranteed to find the window anomalous), and
   some observations are swapped for other alphabet symbols (so some
   windows leave the static language). The enforce gate must reject
   only reference-anomalous windows, and agree with the reference
   verdict whenever the DFA accepts. *)
let prop_enforce_subset_of_anomalous =
  QCheck2.Test.make
    ~name:"enforce-rejected windows are reference-anomalous" ~count:80
    QCheck2.Gen.(
      triple (int_bound 7) (int_bound 1000)
        (list_size (int_range 0 6) (pair (int_bound 30) (int_bound 30))))
    (fun (tidx, salt, swaps) ->
      let ds, profile, auto = Lazy.force fixture in
      let trace = snd (List.nth ds.Pipeline.traces (tidx mod List.length ds.Pipeline.traces)) in
      let window = profile.Profile.params.Profile.window in
      match Window.of_trace ~window trace with
      | [] -> true
      | ws ->
          let w = List.nth ws (salt mod List.length ws) in
          let obs = Array.copy w.Window.obs in
          let callers = Array.copy w.Window.callers in
          let alpha = profile.Profile.alphabet in
          List.iter
            (fun (pos, sym) ->
              obs.(pos mod Array.length obs) <-
                Symbol.observable alpha.(sym mod Array.length alpha))
            swaps;
          callers.(0) <- "intruder";
          let w' = { Window.obs; callers } in
          let eng = Scoring.create profile in
          Scoring.set_static_dfa eng (Some auto);
          Scoring.set_gate_enforce eng true;
          let live = Scoring.classify eng w' in
          let ref_ = Detector.reference_classify profile w' in
          if Seqauto.accepts auto (Array.to_list obs) then
            (* gate lets it through: bit-for-bit the reference verdict *)
            live.Detector.flag = ref_.Detector.flag
            && live.Detector.score = ref_.Detector.score
          else
            (* gate rejects: both sides must call it anomalous *)
            Scoring.gate_rejections eng > 0
            && live.Detector.flag <> Detector.Normal
            && ref_.Detector.flag <> Detector.Normal)

(* On real traces the gate never fires (soundness), so explain mode is
   verdict-identical to off, and enforce still reproduces batch
   detection exactly. *)
let flags_of_summary (s : Daemon.summary) =
  List.map
    (fun (r : Daemon.session_report) ->
      (r.Daemon.session, List.map (fun v -> v.Detector.flag) r.Daemon.verdicts))
    s.Daemon.sessions

let test_replay_explain_identical () =
  let ds, profile, _ = Lazy.force fixture in
  let rng = Mlkit.Rng.create 7 in
  let stream = Sessions.interleave ~rng (List.map snd ds.Pipeline.traces) in
  let run gate =
    Replay.run
      (Daemon.create ~shards:2 ~vet_against:ds.Pipeline.analysis ~static_gate:gate
         profile)
      (Array.map (fun ev -> Transport.Call ev) stream)
  in
  let off = run Daemon.Gate_off in
  let explain = run Daemon.Gate_explain in
  Alcotest.(check bool)
    "explain verdicts = off verdicts" true
    (flags_of_summary off.Replay.summary = flags_of_summary explain.Replay.summary)

let test_replay_enforce_matches_batch () =
  let ds, profile, _ = Lazy.force fixture in
  let rng = Mlkit.Rng.create 11 in
  let stream = Sessions.interleave ~rng (List.map snd ds.Pipeline.traces) in
  let outcome =
    Replay.run
      (Daemon.create ~shards:2 ~vet_against:ds.Pipeline.analysis
         ~static_gate:Daemon.Gate_enforce profile)
      (Array.map (fun ev -> Transport.Call ev) stream)
  in
  let mismatches = Replay.verify_against_batch profile stream outcome.Replay.summary in
  Alcotest.(check int) "no divergence from batch detection" 0
    (List.length mismatches)

let () =
  Alcotest.run "seqauto"
    [
      ( "automaton",
        [
          Alcotest.test_case "factor membership" `Quick test_factor_basics;
          Alcotest.test_case "call-site inlining is context-sensitive" `Quick
            test_inlining_context_sensitivity;
          Alcotest.test_case "budget fallback is coarser but sound" `Quick
            test_budget_fallback_is_coarser_but_sound;
          Alcotest.test_case "loops repeat" `Quick test_loop_repetition;
          Alcotest.test_case "pruned branches leave the language" `Quick
            test_pruning_precision;
          Alcotest.test_case "label views" `Quick test_label_views;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_trace_soundness;
          QCheck_alcotest.to_alcotest prop_nfa_dfa_agree;
          QCheck_alcotest.to_alcotest prop_enforce_subset_of_anomalous;
          QCheck_alcotest.to_alcotest prop_random_nfa_minimal;
        ] );
      ( "build",
        [
          Alcotest.test_case "DFA digests match the goldens" `Quick test_golden_digests;
          Alcotest.test_case "gen-wide build allocation budget" `Quick
            test_build_allocation;
          Alcotest.test_case "gen-wide daemon start allocation budget" `Quick
            test_daemon_create_allocation;
        ] );
      ( "gate",
        [
          Alcotest.test_case "replay: explain is verdict-identical to off" `Quick
            test_replay_explain_identical;
          Alcotest.test_case "replay: enforce reproduces batch detection" `Quick
            test_replay_enforce_matches_batch;
        ] );
    ]
