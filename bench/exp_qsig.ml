(* Query-signature axis: detection rate on the query-mutation family
   (the workloads the call-sequence HMM is blind to) and the per-check
   cost of the compiled engine next to the HMM's per-event cost — the
   price of running both axes. Writes BENCH_qsig.json for the CI
   artifact. *)

module Engine = Adprom_qsig.Engine
module Qmutate = Attack.Qmutate

let variants () = if !Common.smoke then 2 else 4
let check_passes () = if !Common.smoke then 20 else 200

type det_row = {
  scenario : string;
  cases : int;
  flagged_cases : int;  (** test cases with >= 1 anomalous query *)
}

let detection_rows app engine =
  List.map
    (fun scenario ->
      let logs = Qmutate.run_logs scenario app in
      let flagged =
        List.filter
          (fun (_, qlog) ->
            List.exists
              (fun (sql, rows) ->
                (Engine.check ~rows engine sql).Engine.anomalous)
              qlog)
          logs
      in
      {
        scenario = scenario.Attack.Scenario.id;
        cases = List.length logs;
        flagged_cases = List.length flagged;
      })
    (Qmutate.family ~variants:(variants ()))

(* Steady-state per-check cost: the memoized static path plus the
   per-call band check, which is what every post-warmup query pays. *)
let qsig_ns_per_check engine corpus =
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

(* The sequence axis' per-event cost on the same workload: classify the
   normal windows (memo off — the forward pass, not the cache) and
   divide by events scored. *)
let hmm_ns_per_event profile windows =
  let eng = Adprom.Scoring.create ~cache_capacity:0 profile in
  List.iter (fun w -> ignore (Adprom.Scoring.classify eng w)) windows;
  let n = check_passes () in
  let _, seconds =
    Common.time (fun () ->
        for _ = 1 to n do
          List.iter (fun w -> ignore (Adprom.Scoring.classify eng w)) windows
        done)
  in
  let events =
    List.fold_left (fun acc (w : Adprom.Window.t) -> acc + Array.length w.Adprom.Window.obs) 0 windows
  in
  1e9 *. seconds /. float_of_int (n * events)

let run () =
  Common.heading "qsig: query-signature axis detection and overhead";
  let trained = Lazy.force Common.ca_banking in
  let app = trained.Common.dataset.Adprom.Pipeline.app in
  let profile = Lazy.force trained.Common.adprom in
  let qengine = Adprom.Pipeline.train_qsig_engine app in
  let rows = detection_rows app qengine in
  Printf.printf "%-36s %8s %10s\n" "scenario" "cases" "flagged";
  List.iter
    (fun r -> Printf.printf "%-36s %8d %10d\n%!" r.scenario r.cases r.flagged_cases)
    rows;
  let scenarios = List.length rows in
  let caught = List.length (List.filter (fun r -> r.flagged_cases > 0) rows) in
  let rate = float_of_int caught /. float_of_int (max 1 scenarios) in
  (* the per-check corpus: every executed query of the normal runs *)
  let corpus =
    List.concat_map
      (fun (o : Runtime.Interp.outcome) -> o.Runtime.Interp.query_log)
      (Adprom.Pipeline.collect_outcomes app)
  in
  let qsig_ns = qsig_ns_per_check qengine corpus in
  let hmm_ns =
    hmm_ns_per_event profile trained.Common.dataset.Adprom.Pipeline.windows
  in
  let ratio = if hmm_ns > 0.0 then qsig_ns /. hmm_ns else 0.0 in
  Printf.printf
    "\ndetection: %d/%d scenarios flagged (rate %.2f)\n\
     per-check: qsig %.0f ns, HMM %.0f ns/event (ratio %.3f)\n"
    caught scenarios rate qsig_ns hmm_ns ratio;
  let oc = open_out "BENCH_qsig.json" in
  Printf.fprintf oc "{\n  \"smoke\": %b,\n" !Common.smoke;
  Printf.fprintf oc
    "  \"detection\": {\"scenarios\": %d, \"caught\": %d, \"rate\": %.3f},\n"
    scenarios caught rate;
  Printf.fprintf oc
    "  \"overhead\": {\"qsig_ns_per_check\": %.1f, \"hmm_ns_per_event\": %.1f, \
     \"ratio\": %.4f, \"corpus\": %d},\n"
    qsig_ns hmm_ns ratio (List.length corpus);
  Printf.fprintf oc "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"scenario\": \"%s\", \"cases\": %d, \"flagged_cases\": %d}%s\n"
        r.scenario r.cases r.flagged_cases
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote BENCH_qsig.json\n"
