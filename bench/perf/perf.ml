(* The serve-path benchmark: four seeded workloads through the monitor's
   public layers, end-to-end and per-layer metrics, correctness gates.

     perf.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
     perf.exe compare BASE.json CHANGE.json
     perf.exe summary RESULTS.json

   Without --workload every workload runs, each in its own child
   process, traced. With --workload one runs, and the last line of
   output is the JSON result: end-to-end metrics with --trace 0,
   per-layer metrics with --trace 1. See README.md. *)

let benchmark_json = "BENCHMARK.json"
let trace_dir = "bench/perf/out"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let run_one w ~seed ~seconds ~trace =
  let trace_file =
    if trace then begin
      mkdir_p trace_dir;
      Some
        (Filename.concat trace_dir
           (Printf.sprintf "%s-seed%d.trace.json" (Workload.to_string w) seed))
    end
    else None
  in
  let r = Run.run_workload w ~seed ~seconds ~trace ~trace_file in
  if Sys.file_exists benchmark_json then
    { r with Run.gates = r.Run.gates @ [ Report.matches_benchmark benchmark_json r ] }
  else r

let main () =
  let workload = ref None and seed = ref 11 and seconds = ref 10. and trace = ref None in
  let out = ref None in
  let spec =
    [
      ( "--workload",
        Arg.String
          (fun s ->
            match Workload.of_string s with
            | Some w -> workload := Some w
            | None -> raise (Arg.Bad ("unknown workload " ^ s))),
        "W  one of bank-burst, gen-wide, bank-paced, bank-tcp (default: all)" );
      ("--seed", Arg.Set_int seed, "N  stream seed (default 11)");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds per workload (default 10)");
      ( "--trace",
        Arg.Int (fun t -> trace := Some (t <> 0)),
        "0|1  traced pass and per-layer metrics (default 1 for all workloads, 0 for one)" );
      ("--out", Arg.String (fun f -> out := Some f), "FILE  append each result as a JSON line");
    ]
  in
  let usage = "perf.exe [options] | perf.exe compare BASE CHANGE | perf.exe summary FILE" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let record r = Option.iter (fun f -> Report.append_record f r) !out in
  match !workload with
  | Some w ->
      let r = run_one w ~seed:!seed ~seconds:!seconds ~trace:(Option.value ~default:false !trace) in
      Report.print_result r;
      record r;
      print_endline (Report.result_line r);
      exit (if Report.correct r then 0 else 1)
  | None ->
      let trace = Option.value ~default:true !trace in
      let results =
        List.map
          (fun w ->
            let r = Run.in_child (fun () -> run_one w ~seed:!seed ~seconds:!seconds ~trace) in
            Report.print_result r;
            record r;
            r)
          Workload.all
      in
      Report.print_gap results;
      let ok = List.for_all Report.correct results in
      Printf.printf "\n%s\n" (if ok then "all correctness gates passed" else "CORRECTNESS GATES FAILED");
      exit (if ok then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | _ :: "compare" :: a :: b :: _ ->
      exit (if Report.compare_files ~bench:benchmark_json a b = 0 then 0 else 1)
  | _ :: "summary" :: f :: _ -> exit (if Report.summarize ~bench:benchmark_json f then 0 else 1)
  | _ -> main ()
