(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. V). Run with no argument for the full suite, or name
   the experiments to run:

     dune exec bench/main.exe -- table5 fig10
     dune exec bench/main.exe -- all

   Experiment ids: table1-2 table3 table4 table5 table6 table7 table8
   fig10 ablation-cluster ablation-window microbench. *)

let experiments =
  [
    ("table1-2", Exp_tables12.run);
    ("table3", Exp_table3.run);
    ("table4", Exp_table4.run);
    ("table5", Exp_table5.run);
    ("adversary-model", Exp_adversary.run);
    ("table6", Exp_table6.run);
    ("table7", Exp_table7.run);
    ("table8", Exp_table8.run);
    ("fig10", Exp_fig10.run);
    ("crossval", Exp_crossval.run);
    ("interleaved-sessions", Exp_operations.sessions);
    ("cluster", Exp_cluster.run);
    ("vet", Exp_vet.run);
    ("seqauto", Exp_seqauto.run);
    ("qsig", Exp_qsig.run);
    ("qstatic", Exp_qstatic.run);
    ("leakage", Exp_leakage.run);
    ("drift", Exp_operations.drift);
    ("profile-size", Exp_profile_size.run);
    ("ablation-cluster", Exp_ablation.cluster);
    ("ablation-window", Exp_ablation.windows);
    ("microbench", Microbench.run);
  ]

let usage () =
  Printf.printf "usage: main.exe [--smoke] [all | %s]\n"
    (String.concat " | " (List.map fst experiments))

let () =
  let raw = match Array.to_list Sys.argv with _ :: args -> args | [] -> [] in
  Common.smoke := List.mem "--smoke" raw;
  let requested =
    match List.filter (fun a -> a <> "--smoke") raw with
    | [] | [ "all" ] -> List.map fst experiments
    | args -> args
  in
  let unknown = List.filter (fun a -> not (List.mem_assoc a experiments)) requested in
  if unknown <> [] then begin
    List.iter (Printf.printf "unknown experiment: %s\n") unknown;
    usage ();
    exit 1
  end;
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun id ->
      let run = List.assoc id experiments in
      run ())
    requested;
  Printf.printf "\nTotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0)
