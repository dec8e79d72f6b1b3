(* Static-gate cost on the query axis: the per-check price of the
   memoized gate in explain and enforce mode next to a gate-off engine
   on the banking corpus' in-profile traffic, plus the safety
   invariants (explain verdicts bit-for-bit identical to off, trained
   signatures contained in the static set). Writes BENCH_qstatic.json
   for the CI artifact. *)

module Engine = Adprom_qsig.Engine
module Qstatic = Analysis.Qstatic

let check_passes () = if !Common.smoke then 50 else 500

let ns_per_check engine corpus =
  (* warm the per-text memo first: steady state is what the gate adds to *)
  List.iter (fun (sql, rows) -> ignore (Engine.check ~rows engine sql)) corpus;
  let n = check_passes () in
  let _, seconds =
    Common.time (fun () ->
        for _ = 1 to n do
          List.iter
            (fun (sql, rows) -> ignore (Engine.check ~rows engine sql))
            corpus
        done)
  in
  1e9 *. seconds /. float_of_int (n * List.length corpus)

let run () =
  Common.heading "qstatic: static-signature gate overhead and invariants";
  let trained = Lazy.force Common.ca_banking in
  let app = trained.Common.dataset.Adprom.Pipeline.app in
  let analysis = Adprom.Pipeline.analyze_app app in
  let (static : Qstatic.result), infer_s =
    Common.time (fun () -> Qstatic.infer analysis.Analysis.Analyzer.pruned_cfgs)
  in
  let qsig = Adprom.Pipeline.train_qsig ~analysis app in
  let trained_sigs = Adprom_qsig.Profile.signatures qsig in
  let contained =
    List.for_all (fun s -> List.mem s static.Qstatic.signatures) trained_sigs
  in
  let corpus =
    List.concat_map
      (fun (o : Runtime.Interp.outcome) -> o.Runtime.Interp.query_log)
      (Adprom.Pipeline.collect_outcomes app)
  in
  let engine mode =
    let e = Engine.create qsig in
    (match mode with
    | `Off -> ()
    | `Explain | `Enforce ->
        Engine.set_static_signatures e ~complete:static.Qstatic.complete
          static.Qstatic.signatures;
        Engine.set_gate_enforce e (mode = `Enforce));
    e
  in
  (* explain must be bit-for-bit: same verdict records on the same traffic *)
  let e_off = engine `Off and e_explain = engine `Explain in
  let bit_for_bit =
    List.for_all
      (fun (sql, rows) ->
        Engine.check ~rows e_off sql = Engine.check ~rows e_explain sql)
      corpus
  in
  let off_ns = ns_per_check (engine `Off) corpus in
  let explain_ns = ns_per_check (engine `Explain) corpus in
  let enforce_ns = ns_per_check (engine `Enforce) corpus in
  let overhead ns = if off_ns > 0.0 then (ns -. off_ns) /. off_ns else 0.0 in
  Printf.printf
    "inference: %d sites, %d signatures, complete=%b (%.1f ms)\n\
     invariants: trained-contained=%b, explain-bit-for-bit=%b\n\
     per-check: off %.0f ns, explain %.0f ns (%+.1f%%), enforce %.0f ns (%+.1f%%)\n"
    (List.length static.Qstatic.sites)
    (List.length static.Qstatic.signatures)
    static.Qstatic.complete (1e3 *. infer_s) contained bit_for_bit off_ns
    explain_ns
    (100.0 *. overhead explain_ns)
    enforce_ns
    (100.0 *. overhead enforce_ns);
  let oc = open_out "BENCH_qstatic.json" in
  Printf.fprintf oc "{\n  \"smoke\": %b,\n" !Common.smoke;
  Printf.fprintf oc
    "  \"inference\": {\"sites\": %d, \"signatures\": %d, \"complete\": %b, \
     \"infer_ms\": %.2f},\n"
    (List.length static.Qstatic.sites)
    (List.length static.Qstatic.signatures)
    static.Qstatic.complete (1e3 *. infer_s);
  Printf.fprintf oc
    "  \"invariants\": {\"trained_contained\": %b, \"explain_bit_for_bit\": %b},\n"
    contained bit_for_bit;
  Printf.fprintf oc
    "  \"overhead\": {\"off_ns_per_check\": %.1f, \"explain_ns_per_check\": %.1f, \
     \"enforce_ns_per_check\": %.1f, \"explain_overhead\": %.4f, \
     \"enforce_overhead\": %.4f, \"corpus\": %d}\n"
    off_ns explain_ns enforce_ns (overhead explain_ns) (overhead enforce_ns)
    (List.length corpus);
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "wrote BENCH_qstatic.json\n";
  if not contained then failwith "qstatic: trained signatures escape the static set";
  if not bit_for_bit then failwith "qstatic: explain mode changed a verdict"
