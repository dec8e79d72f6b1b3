(* Call-sequence automaton: construction cost (build time and
   major-heap words) and DFA size on a real subject and on a wide
   generated program, then the enforce gate's payoff — classify throughput with
   the gate off vs enforcing, on in-language windows (gate overhead:
   every window walks the DFA and none is rejected) and on
   out-of-language windows (gate payoff: the DFA walk short-circuits
   the HMM forward pass). Writes BENCH_seqauto.json for the CI
   artifact. *)

module Scoring = Adprom.Scoring
module Window = Adprom.Window
module Profile = Adprom.Profile
module Symbol = Analysis.Symbol

let passes () = if !Common.smoke then 10 else 100
let builds () = if !Common.smoke then 1 else 5
let tampered_count () = if !Common.smoke then 200 else 2000

type row = {
  workload : string;
  windows : int;
  rejected : int;  (** DFA-rejected windows per pass (gate hits) *)
  off_ms : float;  (** ms per pass, gate off *)
  enforce_ms : float;  (** ms per pass, gate enforcing *)
}

let speedup r = if r.enforce_ms > 0.0 then r.off_ms /. r.enforce_ms else 0.0

(* Random-symbol windows over the profile's own alphabet: pairwise the
   symbols are familiar, but the sequences are (overwhelmingly) not
   factors of any execution — the short-circuit case the gate exists
   for. *)
let tampered_windows rng (profile : Profile.t) n =
  let alpha = profile.Profile.alphabet in
  let window = profile.Profile.params.Profile.window in
  List.init n (fun _ ->
      {
        Window.obs =
          Array.init window (fun _ -> Symbol.observable (Mlkit.Rng.pick rng alpha));
        callers = Array.make window "main";
      })

let time_passes eng ws =
  let n = passes () in
  let _, seconds =
    Common.time (fun () ->
        for _ = 1 to n do
          List.iter (fun w -> ignore (Scoring.classify eng w)) ws
        done)
  in
  1000.0 *. seconds /. float_of_int n

let measure ~name ~profile ~auto ws =
  (* cache_capacity 0: no memo, every classify pays the full forward
     pass — the comparison isolates the gate, not the memo *)
  let off = Scoring.create ~cache_capacity:0 profile in
  let enf = Scoring.create ~cache_capacity:0 profile in
  Scoring.set_static_dfa enf (Some auto);
  Scoring.set_gate_enforce enf true;
  let off_ms = time_passes off ws in
  let enforce_ms = time_passes enf ws in
  let rejected = Scoring.gate_rejections enf / passes () in
  { workload = name; windows = List.length ws; rejected; off_ms; enforce_ms }

type construction = {
  program : string;
  stats : Analysis.Seqauto.stats;
  build_ms : float;  (** median over [builds ()] builds *)
  major_words : float;  (** major-heap words one build allocates *)
}

(* Build the automaton [builds ()] times; construction is deterministic,
   so every build allocates the same, and the time is the median. *)
let construct ~program build =
  let runs =
    List.init (builds ()) (fun _ ->
        let before = (Gc.quick_stat ()).Gc.major_words in
        let auto, seconds = Common.time build in
        (auto, seconds, (Gc.quick_stat ()).Gc.major_words -. before))
  in
  let auto, _, major_words = List.hd runs in
  let times = Array.of_list (List.map (fun (_, s, _) -> 1000.0 *. s) runs) in
  let c =
    {
      program;
      stats = auto.Analysis.Seqauto.stats;
      build_ms = Mlkit.Stats.quantile times 0.5;
      major_words;
    }
  in
  Printf.printf "%-12s %s  (built in %.1f ms, %.2f M major words)\n" program
    (Analysis.Seqauto.stats_to_string c.stats)
    c.build_ms (major_words /. 1e6);
  (auto, c)

(* The wide generated program: bash-like, narrowed to 24 functions of 7
   statements — a 150-call alphabet and a DFA of several hundred
   states, compiled as a default-params profile would compile it. *)
let wide_program () =
  let spec =
    { Dataset.Proggen.bash_like with Dataset.Proggen.functions = 24; statements_per_function = 7 }
  in
  let app = Dataset.Sir.app4 ~cases:120 ~spec () in
  let a =
    Analysis.Analyzer.analyze (Applang.Parser.parse_program app.Adprom.Pipeline.source)
  in
  fun () ->
    Analysis.Seqauto.build
      ~use_labels:Adprom.Pipeline.adprom_params.Profile.use_labels
      a.Analysis.Analyzer.pruned_cfgs a.Analysis.Analyzer.callgraph

let run () =
  Common.heading "seqauto: static DFA gate short-circuit";
  let trained = Lazy.force Common.ca_hospital in
  let profile = Lazy.force trained.Common.adprom in
  let analysis = trained.Common.dataset.Adprom.Pipeline.analysis in
  let auto, hospital =
    construct ~program:"ca_hospital" (fun () ->
        Adprom.Profile_check.automaton profile analysis)
  in
  let _, wide = construct ~program:"gen-wide" (wide_program ()) in
  let constructions = [ hospital; wide ] in
  let rng = Mlkit.Rng.create 42 in
  let normal = trained.Common.dataset.Adprom.Pipeline.windows in
  let tampered = tampered_windows rng profile (tampered_count ()) in
  let rows =
    [
      measure ~name:"in-language" ~profile ~auto normal;
      measure ~name:"out-of-language" ~profile ~auto tampered;
    ]
  in
  Printf.printf "%-16s %8s %9s %10s %12s %9s\n" "workload" "windows" "rejected"
    "off ms" "enforce ms" "speedup";
  List.iter
    (fun r ->
      Printf.printf "%-16s %8d %9d %10.2f %12.2f %8.1fx\n%!" r.workload r.windows
        r.rejected r.off_ms r.enforce_ms (speedup r))
    rows;
  let oc = open_out "BENCH_seqauto.json" in
  Printf.fprintf oc "{\n  \"smoke\": %b,\n" !Common.smoke;
  Printf.fprintf oc "  \"construction\": [\n";
  List.iteri
    (fun i c ->
      let s = c.stats in
      Printf.fprintf oc
        "    {\"program\": \"%s\", \"functions\": %d, \"nfa_states\": %d, \
         \"dfa_states\": %d, \"alphabet\": %d, \"flat\": %b, \"build_ms\": %.3f, \
         \"major_words\": %.0f}%s\n"
        c.program s.Analysis.Seqauto.functions s.Analysis.Seqauto.nfa_states
        s.Analysis.Seqauto.dfa_states s.Analysis.Seqauto.dfa_width s.Analysis.Seqauto.flat
        c.build_ms c.major_words
        (if i = List.length constructions - 1 then "" else ","))
    constructions;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"workload\": \"%s\", \"windows\": %d, \"rejected\": %d, \"off_ms\": \
         %.3f, \"enforce_ms\": %.3f, \"speedup\": %.2f}%s\n"
        r.workload r.windows r.rejected r.off_ms r.enforce_ms (speedup r)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote BENCH_seqauto.json\n"
