(* adprom — command-line front end.

   Subcommands:
     analyze  <file>   static phase: CFGs, DDG labels, CTMs, pCTM
     run      <file>   interpret a program, printing the call trace
     demo     <app>    train on a built-in app and replay its attack
     list-apps         list the built-in subject applications *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* an optional file, loaded when its flag was given *)
let load_opt load = function
  | None -> Ok None
  | Some path -> Result.map Option.some (load path)

let builtin_apps () =
  [
    ("hospital", Dataset.Ca_hospital.app ());
    ("banking", Dataset.Ca_banking.app ());
    ("supermarket", Dataset.Ca_supermarket.app ());
    ("grep", Dataset.Sir.app1 ());
    ("gzip", Dataset.Sir.app2 ());
    ("sed", Dataset.Sir.app3 ());
    ("bash", Dataset.Sir.app4 ());
    ("webportal", Dataset.Web_portal.app ());
  ]

(* --- analyze ----------------------------------------------------------- *)

let analyze_cmd_run file verbose dot_dir =
  let source = read_file file in
  let program = Applang.Parser.parse_program source in
  let analysis = Analysis.Analyzer.analyze program in
  Printf.printf "functions: %d\n" (List.length analysis.Analysis.Analyzer.cfgs);
  List.iter
    (fun (name, cfg) ->
      Printf.printf "  %-24s %3d blocks, %2d call sites\n" name
        (List.length (Analysis.Cfg.node_ids cfg))
        (List.length (Analysis.Cfg.call_nodes cfg)))
    analysis.Analysis.Analyzer.cfgs;
  let labeled = analysis.Analysis.Analyzer.taint.Analysis.Taint.labeled_blocks in
  Printf.printf "DB-output labels (DDG): %s\n"
    (if labeled = [] then "none"
     else String.concat ", " (List.map (Printf.sprintf "block %d") labeled));
  Printf.printf "pCTM: %d call sites, invariants hold: %b\n"
    (List.length (Analysis.Ctm.calls analysis.Analysis.Analyzer.pctm))
    (Analysis.Ctm.conserved analysis.Analysis.Analyzer.pctm);
  if verbose then begin
    print_endline "--- pCTM ---";
    Format.printf "%a@." Analysis.Ctm.pp analysis.Analysis.Analyzer.pctm
  end;
  (match dot_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let write name contents =
        let oc = open_out (Filename.concat dir name) in
        output_string oc contents;
        close_out oc
      in
      List.iter
        (fun (name, cfg) -> write (name ^ ".dot") (Analysis.Export.cfg_to_dot cfg))
        analysis.Analysis.Analyzer.cfgs;
      write "pctm.dot" (Analysis.Export.ctm_to_dot analysis.Analysis.Analyzer.pctm);
      write "callgraph.dot"
        (Analysis.Export.callgraph_to_dot analysis.Analysis.Analyzer.callgraph);
      Printf.printf "Graphviz files written to %s/
" dir);
  `Ok ()

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"AppLang source file.")

let verbose_flag = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the full pCTM.")

let dot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"DIR" ~doc:"Write Graphviz files (CFGs, pCTM, call graph) to DIR.")

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze" ~doc:"Statically analyze an AppLang program (CFG, DDG, pCTM).")
    Term.(ret (const analyze_cmd_run $ file_arg $ verbose_flag $ dot_arg))

(* --- vet --------------------------------------------------------------- *)

let collect_app_files paths =
  List.concat_map
    (fun path ->
      if Sys.is_directory path then
        Sys.readdir path |> Array.to_list |> List.sort compare
        |> List.filter (fun f -> Filename.check_suffix f ".app")
        |> List.map (Filename.concat path)
      else [ path ])
    paths

let vet_one ~entry ~profile ~qsig_signatures ~leakage_policy path =
  let module Diag = Analysis.Diag in
  match Applang.Parser.parse_program (read_file path) with
  | exception e ->
      [ Diag.make Diag.Error ~code:"parse-error" (Printexc.to_string e) ]
  | program -> (
      (* the query-axis cross-check rides along when a trained qsig
         profile was given: its signatures against the statically
         inferable set *)
      let qsig_diags sq =
        match qsig_signatures with
        | None -> []
        | Some trained ->
            Analysis.Vet.check_qsig_coverage ~static_queries:sq
              ~trained_signatures:trained
      in
      (* the leakage checks ride along when a sensitivity policy was
         given: sink atoms of the static flow summary judged under it *)
      let leak_diags sq cfgs =
        match leakage_policy with
        | None -> []
        | Some policy ->
            let summary =
              Analysis.Leakage.analyze
                ~schema:(Applang.Libspec.Sensitivity.schema policy)
                ~static:sq cfgs
            in
            Analysis.Vet.check_leakage ~policy ~summary
      in
      match profile with
      | None ->
          let cfgs, _sites = Analysis.Cfg_build.build_program program in
          (* labeling is irrelevant to the program checks but keeps the
             CFGs in the same state `analyze` would leave them *)
          ignore (Analysis.Taint.analyze cfgs);
          let sq = Analysis.Qstatic.infer ~entry cfgs in
          Diag.dedupe
            (List.sort Diag.compare
               (Analysis.Vet.check_program ~entry ~static_queries:sq cfgs
               @ qsig_diags sq @ leak_diags sq cfgs))
      | Some p -> (
          match Analysis.Analyzer.analyze ~entry program with
          | exception Invalid_argument msg ->
              [ Diag.make Diag.Error ~code:"analysis-error" msg ]
          | analysis ->
              let qdiags =
                if qsig_signatures = None && leakage_policy = None then []
                else
                  let sq =
                    Analysis.Qstatic.infer ~entry
                      analysis.Analysis.Analyzer.pruned_cfgs
                  in
                  qsig_diags sq
                  @ leak_diags sq analysis.Analysis.Analyzer.pruned_cfgs
              in
              Diag.dedupe
                (List.sort Diag.compare
                   (Adprom.Profile_check.check ~entry p analysis @ qdiags))))

let vet_cmd_run paths format strict entry profile_path qsig_profile_path
    leakage_policy_path =
  let module Diag = Analysis.Diag in
  let module Json = Adprom_obs.Json in
  let profile = load_opt Adprom.Profile_io.load profile_path in
  let qsig_signatures =
    load_opt
      (fun p -> Result.map Adprom_qsig.Profile.signatures (Adprom_qsig.Profile.load p))
      qsig_profile_path
  in
  let leakage_policy =
    load_opt Applang.Libspec.Sensitivity.load leakage_policy_path
  in
  match (profile, qsig_signatures, leakage_policy) with
  | Error msg, _, _ -> `Error (false, Printf.sprintf "cannot load profile: %s" msg)
  | _, Error msg, _ ->
      `Error (false, Printf.sprintf "cannot load qsig profile: %s" msg)
  | _, _, Error msg ->
      `Error (false, Printf.sprintf "cannot load leakage policy: %s" msg)
  | Ok profile, Ok qsig_signatures, Ok leakage_policy -> (
      match collect_app_files paths with
      | [] -> `Error (false, "no AppLang (.app) files to vet")
      | files ->
          let results =
            List.map
              (fun f ->
                (f, vet_one ~entry ~profile ~qsig_signatures ~leakage_policy f))
              files
          in
          (match format with
          | `Text ->
              List.iter
                (fun (file, diags) ->
                  List.iter
                    (fun d -> Printf.printf "%s: %s\n" file (Diag.to_string d))
                    diags;
                  Printf.printf "%s: %s\n" file (Diag.summary diags))
                results
          | `Json ->
              let file_json (file, diags) =
                Json.obj
                  [
                    ("file", Json.string file);
                    ("summary", Json.string (Diag.summary diags));
                    ("errors", string_of_int (List.length (Diag.errors diags)));
                    ("warnings", string_of_int (List.length (Diag.warnings diags)));
                    ("hints", string_of_int (List.length (Diag.hints diags)));
                    ( "diagnostics",
                      "[" ^ String.concat "," (List.map Diag.to_json diags) ^ "]" );
                  ]
              in
              print_endline ("[" ^ String.concat ",\n" (List.map file_json results) ^ "]")
          | `Sarif -> print_endline (Analysis.Sarif.report results));
          let all = List.concat_map snd results in
          (* hints never fail, not even under --strict *)
          if Diag.errors all <> [] || (strict && Diag.warnings all <> []) then
            `Error (false, Printf.sprintf "vet failed: %s" (Diag.summary all))
          else `Ok ())

let vet_paths_arg =
  Arg.(
    non_empty & pos_all file []
    & info [] ~docv:"PATH"
        ~doc:"AppLang source files, or directories containing .app files.")

let vet_format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FMT" ~doc:"Output format: $(b,text) or $(b,json).")

let vet_output_format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ]) `Text
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Output format: $(b,text), $(b,json), or $(b,sarif) (minimal SARIF \
           2.1.0 — rules from diagnostic codes, severities mapped, witness \
           paths as related locations).")

let strict_flag =
  Arg.(
    value & flag
    & info [ "strict" ] ~doc:"Fail on warnings too, not only on errors.")

let entry_arg =
  Arg.(
    value & opt string "main"
    & info [ "entry" ] ~docv:"FUNC"
        ~doc:"Entry function for the reachability checks.")

let vet_profile_path_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "profile" ] ~docv:"PROFILE"
        ~doc:
          "Also cross-check a stored profile (see `adprom train`): its alphabet and \
           known (caller, call) pairs must be statically reachable, and reachable \
           behaviour the profile never saw is reported as a training gap.")

let vet_qsig_profile_path_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "qsig-profile" ] ~docv:"FILE"
        ~doc:
          "Also cross-check a trained query-signature profile (see `adprom qsig \
           train`) against the statically inferable signature set: trained \
           signatures the program cannot emit are errors, emittable signatures \
           never observed in training are hints.")

let leakage_policy_path_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "leakage-policy" ] ~docv:"FILE"
        ~doc:
          "Also run the column-level leakage checks under a sensitivity policy \
           file (schema, key and secret/internal/public declarations): secret \
           columns reaching an output sink are errors, internal columns with \
           no cardinality bound are warnings, unresolved provenance is a hint.")

let vet_cmd =
  Cmd.v
    (Cmd.info "vet"
       ~doc:
         "Statically verify AppLang programs: dead code, use-before-init, undefined \
          callees, loops with no reachable exit, SQL call sites where untrusted \
          input reaches query structure — and, with $(b,--profile) or \
          $(b,--qsig-profile), profile coverage against the statically possible \
          behaviour. Exits non-zero on errors (with $(b,--strict): on warnings \
          too; hints never fail). With $(b,--leakage-policy), the column-level \
          leakage checks ride along.")
    Term.(
      ret
        (const vet_cmd_run $ vet_paths_arg $ vet_output_format_arg $ strict_flag
       $ entry_arg $ vet_profile_path_arg $ vet_qsig_profile_path_arg
       $ leakage_policy_path_arg))

(* --- leakage ----------------------------------------------------------- *)

let leakage_cmd_run target entry policy_path format witness =
  let module L = Analysis.Leakage in
  let module F = Analysis.Flowdom in
  let module Sens = Applang.Libspec.Sensitivity in
  let module Json = Adprom_obs.Json in
  match load_opt Sens.load policy_path with
  | Error msg ->
      `Error (false, Printf.sprintf "cannot load leakage policy: %s" msg)
  | Ok policy -> (
      let analysis =
        if Sys.file_exists target && not (Sys.is_directory target) then
          match Applang.Parser.parse_program (read_file target) with
          | exception e -> Error (Printexc.to_string e)
          | program -> (
              match Analysis.Analyzer.analyze ~entry program with
              | exception Invalid_argument msg -> Error msg
              | a -> Ok a)
        else
          match List.assoc_opt target (builtin_apps ()) with
          | Some app -> Ok (Adprom.Pipeline.analyze_app app)
          | None ->
              Error
                (Printf.sprintf
                   "%S is neither an AppLang file nor a built-in app (try \
                    `adprom list-apps`)"
                   target)
      in
      match analysis with
      | Error msg -> `Error (false, msg)
      | Ok analysis ->
          let cfgs = analysis.Analysis.Analyzer.pruned_cfgs in
          let sq = Analysis.Qstatic.infer ~entry cfgs in
          let schema =
            match policy with
            | Some pol -> Sens.schema pol
            | None -> Applang.Libspec.Schema.empty ()
          in
          let summary = L.analyze ~schema ~static:sq cfgs in
          let level_of (a : F.atom) =
            match (policy, a.F.src) with
            | Some pol, F.Col { table; column } ->
                Some (Sens.level_to_string (Sens.level pol ~table ~column))
            | _ -> None
          in
          let findings () =
            match policy with
            | None -> []
            | Some pol -> Analysis.Vet.check_leakage ~policy:pol ~summary
          in
          (match format with
          | `Text ->
              Printf.printf "leakage summary: %d sink site(s), %s\n"
                (List.length summary.L.sinks)
                (if summary.L.complete then
                   "complete (every query site statically resolved)"
                 else "incomplete (open query sites; flows may be missing)");
              List.iter
                (fun (s : L.sink) ->
                  Printf.printf "%s#%d %s <- %s\n" s.L.func s.L.block s.L.callee
                    (String.concat ", "
                       (List.map
                          (fun (a : F.atom) ->
                            F.atom_to_string a
                            ^
                            match level_of a with
                            | Some l -> " [" ^ l ^ "]"
                            | None -> "")
                          s.L.atoms));
                  if witness then
                    List.iter
                      (fun (a : F.atom) ->
                        if a.F.origin <> [] then
                          Printf.printf "    %s: %s\n"
                            (F.src_to_string a.F.src)
                            (F.witness_to_string a))
                      s.L.atoms)
                summary.L.sinks;
              (match findings () with
              | [] -> ()
              | diags ->
                  print_endline "--- policy findings ---";
                  List.iter
                    (fun d -> print_endline (Analysis.Diag.to_string d))
                    diags)
          | `Json ->
              let atom_json (a : F.atom) =
                Json.obj
                  ([
                     ("source", Json.string (F.src_to_string a.F.src));
                     ("cardinality", Json.string (F.card_to_string a.F.card));
                   ]
                  @ (match level_of a with
                    | Some l -> [ ("level", Json.string l) ]
                    | None -> [])
                  @
                  if witness && a.F.origin <> [] then
                    [
                      ( "witness",
                        "["
                        ^ String.concat "," (List.map Json.string a.F.origin)
                        ^ "]" );
                    ]
                  else [])
              in
              let sink_json (s : L.sink) =
                Json.obj
                  [
                    ("func", Json.string s.L.func);
                    ("block", string_of_int s.L.block);
                    ("callee", Json.string s.L.callee);
                    ( "atoms",
                      "[" ^ String.concat "," (List.map atom_json s.L.atoms) ^ "]"
                    );
                  ]
              in
              let findings_json =
                match policy with
                | None -> []
                | Some _ ->
                    [
                      ( "findings",
                        "["
                        ^ String.concat ","
                            (List.map Analysis.Diag.to_json (findings ()))
                        ^ "]" );
                    ]
              in
              print_endline
                (Json.obj
                   ([
                      ("complete", if summary.L.complete then "true" else "false");
                      ( "sinks",
                        "["
                        ^ String.concat "," (List.map sink_json summary.L.sinks)
                        ^ "]" );
                    ]
                   @ findings_json)));
          `Ok ())

let leakage_target_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"TARGET"
        ~doc:"An AppLang source file, or a built-in app name (see `adprom list-apps`).")

let leakage_policy_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "policy" ] ~docv:"FILE"
        ~doc:
          "Sensitivity policy: annotate atoms with their policy level and \
           append the policy findings the vet checks would report.")

let witness_flag =
  Arg.(
    value & flag
    & info [ "witness" ]
        ~doc:"Show the def-use witness path of every atom (source-first).")

let leakage_cmd =
  Cmd.v
    (Cmd.info "leakage"
       ~doc:
         "Print a program's static leakage summary: every reachable output \
          sink whose arguments can carry query-derived data, with the \
          table.column provenance atoms, cardinality classes, and (with \
          $(b,--witness)) def-use witness paths. With $(b,--policy), atoms \
          are judged under the sensitivity policy.")
    Term.(
      ret
        (const leakage_cmd_run $ leakage_target_arg $ entry_arg
       $ leakage_policy_arg $ vet_format_arg $ witness_flag))

(* --- run --------------------------------------------------------------- *)

let run_cmd_run file inputs show_trace =
  let source = read_file file in
  let program = Applang.Parser.parse_program source in
  let analysis = Analysis.Analyzer.analyze program in
  let engine = Sqldb.Engine.create () in
  let tc = Runtime.Testcase.make ~input:inputs "cli-run" in
  let trace, outcome = Runtime.Interp.collect_trace ~analysis ~engine tc in
  print_string outcome.Runtime.Interp.stdout;
  (match outcome.Runtime.Interp.status with
  | Ok () -> ()
  | Error msg -> Printf.eprintf "runtime error: %s\n" msg);
  if show_trace then begin
    Printf.printf "--- trace (%d library calls) ---\n" (Array.length trace);
    Array.iter
      (fun (e : Runtime.Collector.event) ->
        Printf.printf "%-24s from %s\n"
          (Analysis.Symbol.to_string e.Runtime.Collector.symbol)
          e.Runtime.Collector.caller)
      trace
  end;
  `Ok ()

let inputs_arg =
  Arg.(
    value & opt_all string []
    & info [ "i"; "input" ] ~docv:"LINE" ~doc:"A line of scripted stdin (repeatable).")

let trace_flag = Arg.(value & flag & info [ "t"; "trace" ] ~doc:"Print the library-call trace.")

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Interpret an AppLang program under the Calls Collector.")
    Term.(ret (const run_cmd_run $ file_arg $ inputs_arg $ trace_flag))

(* --- demo -------------------------------------------------------------- *)

let demo_cmd_run app_name =
  match List.assoc_opt app_name (builtin_apps ()) with
  | None ->
      `Error (false, Printf.sprintf "unknown app %S; try `adprom list-apps`" app_name)
  | Some app ->
      Printf.printf "Collecting normal traces of %s ...\n%!" app.Adprom.Pipeline.name;
      let dataset = Adprom.Pipeline.collect app in
      Printf.printf "Training the profile (%d sequences) ...\n%!"
        (List.length dataset.Adprom.Pipeline.windows);
      let engine = Adprom.Pipeline.train_engine dataset in
      let profile = Adprom.Scoring.profile engine in
      Printf.printf "Profile ready: %d states, threshold %.3f\n"
        profile.Adprom.Profile.clustering.Adprom.Reduction.states
        profile.Adprom.Profile.threshold;
      let attacks =
        List.filter
          (fun (c : Dataset.Ca_attacks.case) ->
            c.Dataset.Ca_attacks.app.Adprom.Pipeline.name = app.Adprom.Pipeline.name)
          (Dataset.Ca_attacks.all ())
      in
      if attacks = [] then
        Printf.printf "(no built-in attack scenario targets this app)\n"
      else
        List.iter
          (fun (c : Dataset.Ca_attacks.case) ->
            let traces = Attack.Scenario.run c.Dataset.Ca_attacks.scenario app in
            let verdicts =
              List.concat_map
                (fun (_, t) -> List.map snd (Adprom.Scoring.monitor engine t))
                traces
            in
            Printf.printf "%s -> %s\n" c.Dataset.Ca_attacks.label
              (Adprom.Detector.flag_to_string (Adprom.Detector.worst verdicts)))
          attacks;
      `Ok ()

let app_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"APP" ~doc:"Built-in app name (see list-apps).")

let demo_cmd =
  Cmd.v
    (Cmd.info "demo" ~doc:"Train on a built-in app and replay its attack scenarios.")
    Term.(ret (const demo_cmd_run $ app_arg))

(* --- train ------------------------------------------------------------- *)

let train_cmd_run app_name output =
  match List.assoc_opt app_name (builtin_apps ()) with
  | None -> `Error (false, Printf.sprintf "unknown app %S; try `adprom list-apps`" app_name)
  | Some app ->
      Printf.printf "Collecting traces and training %s ...\n%!" app.Adprom.Pipeline.name;
      let dataset = Adprom.Pipeline.collect app in
      let profile = Adprom.Pipeline.train dataset in
      Adprom.Profile_io.save profile output;
      Printf.printf "Profile written to %s (%d states, %d observables, threshold %.3f)\n"
        output
        profile.Adprom.Profile.clustering.Adprom.Reduction.states
        (Array.length profile.Adprom.Profile.alphabet)
        profile.Adprom.Profile.threshold;
      `Ok ()

let output_arg =
  Arg.(
    value
    & opt string "app.profile"
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Where to store the serialized profile.")

let train_cmd =
  Cmd.v
    (Cmd.info "train" ~doc:"Train a profile for a built-in app and save it to disk.")
    Term.(ret (const train_cmd_run $ app_arg $ output_arg))

(* --- check ------------------------------------------------------------- *)

let check_cmd_run profile_path file inputs =
  match Adprom.Profile_io.load profile_path with
  | Error msg -> `Error (false, Printf.sprintf "cannot load profile: %s" msg)
  | Ok profile ->
      let source = read_file file in
      let program = Applang.Parser.parse_program source in
      let analysis = Analysis.Analyzer.analyze program in
      let engine = Sqldb.Engine.create () in
      let tc = Runtime.Testcase.make ~input:inputs "cli-check" in
      let trace, outcome = Runtime.Interp.collect_trace ~analysis ~engine tc in
      (match outcome.Runtime.Interp.status with
      | Ok () -> ()
      | Error msg -> Printf.eprintf "runtime error: %s\n" msg);
      let scoring = Adprom.Scoring.create profile in
      let verdicts = Adprom.Scoring.monitor scoring trace in
      let worst = Adprom.Detector.worst (List.map snd verdicts) in
      List.iter
        (fun ((w : Adprom.Window.t), (v : Adprom.Detector.verdict)) ->
          if v.Adprom.Detector.flag <> Adprom.Detector.Normal then begin
            Printf.printf "ALERT %-14s score=%s%s\n"
              (Adprom.Detector.flag_to_string v.Adprom.Detector.flag)
              (Adprom.Report.float_cell v.Adprom.Detector.score)
              (match v.Adprom.Detector.unknown_pair with
              | Some (caller, sym) ->
                  Printf.sprintf " (out of context: %s from %s)"
                    (Analysis.Symbol.to_string sym) caller
              | None -> "");
            match Adprom.Detector.explain ~top:1 profile w with
            | [ s ] ->
                Printf.printf "      most surprising: %s from %s (position %d)\n"
                  (Analysis.Symbol.to_string s.Adprom.Detector.symbol)
                  s.Adprom.Detector.caller s.Adprom.Detector.position
            | _ -> ()
          end)
        verdicts;
      Printf.printf "%d window(s) scored; overall verdict: %s\n" (List.length verdicts)
        (Adprom.Detector.flag_to_string worst);
      `Ok ()

let profile_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"PROFILE" ~doc:"Serialized profile (see `adprom train`).")

let check_file_arg =
  Arg.(required & pos 1 (some file) None & info [] ~docv:"FILE" ~doc:"AppLang source file.")

let check_cmd =
  Cmd.v
    (Cmd.info "check" ~doc:"Monitor one run of a program against a stored profile.")
    Term.(ret (const check_cmd_run $ profile_arg $ check_file_arg $ inputs_arg))

(* --- record / replay / serve: the online monitoring daemon ------------- *)

module Service = Adprom_service

let shards_arg =
  Arg.(
    value & opt int 4
    & info [ "shards" ] ~docv:"N" ~doc:"Worker domains of the daemon (one shard each).")

let capacity_arg =
  Arg.(
    value & opt int 4096
    & info [ "capacity" ] ~docv:"N"
        ~doc:"Bounded per-shard queue capacity; overflowing sessions are shed.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Interleaving RNG seed.")

let vet_policy_arg =
  Arg.(
    value
    & opt
        (enum
           Adprom.Profile_check.[ ("off", Off); ("warn", Warn); ("enforce", Enforce) ])
        Adprom.Profile_check.Warn
    & info [ "vet-profile" ] ~docv:"POLICY"
        ~doc:
          "Vet the profile against the program's static analysis before monitoring: \
           $(b,off), $(b,warn) (log and count findings, serve anyway), or \
           $(b,enforce) (refuse a profile with error-class findings).")

let static_gate_conv =
  Arg.enum
    Service.Daemon.[ ("off", Gate_off); ("explain", Gate_explain); ("enforce", Gate_enforce) ]

let static_gate_arg =
  Arg.(
    value
    & opt static_gate_conv Service.Daemon.Gate_explain
    & info [ "static-gate" ] ~docv:"MODE"
        ~doc:
          "Call-sequence automaton gate (needs a vetted program): $(b,off) (no \
           automaton), $(b,explain) (load the DFA for explanations and gate metrics, \
           verdicts unchanged), or $(b,enforce) (statically impossible windows \
           short-circuit to an anomalous verdict without a forward pass).")

let qsig_mode_arg =
  Arg.(
    value
    & opt
        (enum Service.Daemon.[ ("off", Qsig_off); ("warn", Qsig_warn); ("enforce", Qsig_enforce) ])
        Service.Daemon.Qsig_off
    & info [ "qsig" ] ~docv:"MODE"
        ~doc:
          "Query-signature detection axis over the stream's executed-query lines: \
           $(b,off) (ignore them — sequence verdicts bit-for-bit unchanged), \
           $(b,warn) (check under the flexible constraint policy; anomalies become \
           incidents and metrics), or $(b,enforce) (strict policy — a superset of \
           warn's anomalies).")

let qsig_profile_path_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "qsig-profile" ] ~docv:"FILE"
        ~doc:"Trained query-signature profile (see `adprom qsig train`).")

let qsig_static_gate_arg =
  Arg.(
    value
    & opt static_gate_conv Service.Daemon.Gate_explain
    & info [ "qsig-static-gate" ] ~docv:"MODE"
        ~doc:
          "Static query-signature gate over the query axis (needs a vetted \
           program and an armed $(b,--qsig)): $(b,off), $(b,explain) (infer the \
           program's emittable signature set, count gate checks and would-be \
           rejections, query verdicts unchanged), or $(b,enforce) (a query whose \
           signature the program provably cannot emit short-circuits to an \
           anomalous verdict before constraint checking).")

(* The daemon flags replay, serve and serve --listen share, with the
   leakage policy loaded once. *)
type daemon_flags = {
  shards : int;
  capacity : int;
  vet_policy : Adprom.Profile_check.policy;
  static_gate : Service.Daemon.gate_mode;
  qsig_mode : Service.Daemon.qsig_mode;
  qsig_static_gate : Service.Daemon.gate_mode;
  leakage_policy : Applang.Libspec.Sensitivity.t option;
}

let daemon_flags_term =
  let make shards capacity vet_policy static_gate qsig_mode qsig_static_gate
      leakage_policy_path =
    match load_opt Applang.Libspec.Sensitivity.load leakage_policy_path with
    | Error msg ->
        `Error (false, Printf.sprintf "cannot load --leakage-policy: %s" msg)
    | Ok leakage_policy ->
        `Ok
          {
            shards;
            capacity;
            vet_policy;
            static_gate;
            qsig_mode;
            qsig_static_gate;
            leakage_policy;
          }
  in
  Term.(
    ret
      (const make $ shards_arg $ capacity_arg $ vet_policy_arg $ static_gate_arg
     $ qsig_mode_arg $ qsig_static_gate_arg $ leakage_policy_path_arg))

let daemon_create f ?alerts ?vet_against ?qsig_profile profile =
  Service.Daemon.create ~shards:f.shards ~queue_capacity:f.capacity ?alerts
    ?vet_against ~vet_policy:f.vet_policy ~static_gate:f.static_gate
    ~qsig_mode:f.qsig_mode ?qsig_profile ~qsig_static_gate:f.qsig_static_gate
    ?leakage_policy:f.leakage_policy profile

(* --- observability flags (shared by replay / serve) -------------------- *)

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Enable tracing and write the span tree as Chrome trace_event JSON \
           (chrome://tracing, Perfetto) to FILE on exit.")

let log_tail_arg =
  Arg.(
    value & opt int 0
    & info [ "log-tail" ] ~docv:"N"
        ~doc:"Print the last N structured events from the daemon's per-shard rings.")

let log_level_arg =
  Arg.(
    value
    & opt
        (some
           (enum
              Adprom_obs.Log.
                [ ("debug", Debug); ("info", Info); ("warn", Warn); ("warning", Warn);
                  ("error", Error) ]))
        None
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Emit structured events at LEVEL and above (debug|info|warn|error) as JSONL \
           on stderr. Without this flag the log sink stays off.")

let log_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-file" ] ~docv:"FILE"
        ~doc:
          "Append structured JSONL events to FILE instead of stderr (implies \
           $(b,--log-level) info unless given).")

let log_max_bytes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "log-max-bytes" ] ~docv:"BYTES"
        ~doc:
          "Rotate the $(b,--log-file) sink: when the next line would push the file \
           past BYTES it is renamed to FILE.1 (replacing any previous generation) \
           and a fresh FILE is started, bounding disk use at roughly twice BYTES.")

let obs_setup ?log_file ?log_max_bytes log_level trace_out =
  (match (log_level, log_file) with
  | None, None -> ()
  | lvl, file -> (
      Adprom_obs.Log.set_threshold
        (Option.value ~default:Adprom_obs.Log.Info lvl);
      match file with
      | Some path -> Adprom_obs.Log.to_file ?max_bytes:log_max_bytes path
      | None -> Adprom_obs.Log.set_sink Adprom_obs.Log.Stderr));
  if trace_out <> None then Adprom_obs.Trace.set_enabled true

let obs_finish trace_out =
  match trace_out with
  | None -> ()
  | Some path ->
      Adprom_obs.Trace.dump_chrome path;
      Printf.printf "\n%d spans -> %s\n" (List.length (Adprom_obs.Trace.spans ())) path

let print_events_tail n (events : Adprom_obs.Log.event list) =
  if n > 0 then begin
    let len = List.length events in
    let tail = List.filteri (fun i _ -> i >= len - n) events in
    Printf.printf "\n--- recent events (%d of %d) ---\n" (List.length tail) len;
    if tail = [] then print_endline "(none)"
    else List.iter (fun e -> print_endline (Adprom_obs.Log.event_to_string e)) tail
  end

let print_summary ?(labels = []) ?alerts (summary : Service.Daemon.summary) =
  let label s = match List.assoc_opt s labels with Some l -> l | None -> "" in
  let qsig_on =
    List.exists
      (fun (r : Service.Daemon.session_report) -> r.Service.Daemon.qsig_checks > 0)
      summary.Service.Daemon.sessions
  in
  let header = [ "session"; "label"; "events"; "windows"; "verdict" ] in
  let header = if qsig_on then header @ [ "queries"; "axes" ] else header in
  Adprom.Report.print ~header
    (List.map
       (fun (r : Service.Daemon.session_report) ->
         let row =
           [
             string_of_int r.Service.Daemon.session;
             label r.Service.Daemon.session;
             string_of_int r.Service.Daemon.events;
             string_of_int r.Service.Daemon.windows;
             Adprom.Detector.flag_to_string r.Service.Daemon.worst;
           ]
         in
         if not qsig_on then row
         else
           row
           @ [
               Printf.sprintf "%d/%d anomalous" r.Service.Daemon.qsig_anomalies
                 r.Service.Daemon.qsig_checks;
               (match alerts with
               | Some a ->
                   Service.Alerts.fused_to_string
                     (Service.Alerts.fused_axes a
                        ~session:r.Service.Daemon.session)
               | None -> "");
             ])
       summary.Service.Daemon.sessions);
  if summary.Service.Daemon.shed <> [] then begin
    Printf.printf "\nShed sessions (queue overload — whole sessions, never single events):\n";
    List.iter
      (fun (s, dropped, discarded) ->
        Printf.printf "  session %d%s: %d events dropped, %d accepted events discarded\n" s
          (match label s with "" -> "" | l -> " (" ^ l ^ ")")
          dropped discarded)
      summary.Service.Daemon.shed
  end;
  Printf.printf "\nevents: offered %d, ingested %d, dropped %d\n"
    summary.Service.Daemon.events_offered summary.Service.Daemon.events_ingested
    summary.Service.Daemon.events_dropped

let print_outcome ?labels ?(log_tail = 0) (outcome : Service.Replay.outcome) =
  print_summary ?labels ~alerts:outcome.Service.Replay.alerts
    outcome.Service.Replay.summary;
  Printf.printf "\n--- incident log (%d incidents) ---\n"
    (Service.Alerts.count outcome.Service.Replay.alerts);
  (match Service.Alerts.to_string outcome.Service.Replay.alerts with
  | "" -> print_endline "(empty)"
  | log -> print_endline log);
  print_events_tail log_tail outcome.Service.Replay.events_tail;
  Printf.printf "\n--- metrics ---\n%s" (Service.Metrics.dump outcome.Service.Replay.metrics);
  Printf.printf "\nthroughput: %.0f events/sec (%.3fs)\n"
    (Service.Replay.throughput outcome)
    outcome.Service.Replay.seconds

let wire_arg =
  Arg.(
    value
    & opt
        (* an alias comes before its canonical name: the last
           spelling of a value is the one printed as the default *)
        (enum
           Service.Transport.[ ("line", Line); ("text", Line); ("bin", Binary); ("binary", Binary) ])
        Service.Transport.Line
    & info [ "wire" ] ~docv:"FMT"
        ~doc:
          "Record file format: $(b,text) (the greppable line format) or $(b,binary) \
           (length-prefixed frames — what the cluster speaks, and several times \
           faster to encode and decode). `replay` and `route` autodetect either.")

(* Either record format: sniff the magic bytes, decode accordingly. *)
let decode_any data =
  Service.Transport.decode_all
    (Service.Frame.transport_of_wire (Service.Frame.detect data))
    data

let call_events items =
  Array.of_list
    (List.filter_map
       (function Service.Transport.Call ev -> Some ev | Query _ -> None)
       (Array.to_list items))

(* A host stream as wire items: the interleaved call events, then the
   executed queries of each session (session [i] ran the [i]th
   outcome). Only per-session query order matters, so the queries ride
   along at the end. *)
let host_items stream (outcomes : Runtime.Interp.outcome list) =
  let queries =
    List.concat
      (List.mapi
         (fun i (o : Runtime.Interp.outcome) ->
           List.map
             (fun (sql, rows) ->
               Service.Transport.Query { q_session = i; rows; sql })
             o.Runtime.Interp.query_log)
         outcomes)
  in
  Array.append
    (Array.map (fun ev -> Service.Transport.Call ev) stream)
    (Array.of_list queries)

let record_cmd_run app_name output sessions seed wire =
  match List.assoc_opt app_name (builtin_apps ()) with
  | None -> `Error (false, Printf.sprintf "unknown app %S; try `adprom list-apps`" app_name)
  | Some app ->
      let analysis = Adprom.Pipeline.analyze_app app in
      let cases = app.Adprom.Pipeline.test_cases in
      if cases = [] then `Error (false, "app has no test cases")
      else begin
        let runs =
          List.init sessions (fun i ->
              let tc = List.nth cases (i mod List.length cases) in
              Adprom.Pipeline.run_case ~analysis app tc)
        in
        let rng = Mlkit.Rng.create seed in
        let stream = Adprom.Sessions.interleave ~rng (List.map fst runs) in
        let items = host_items stream (List.map snd runs) in
        let oc = open_out_bin output in
        output_string oc
          (Service.Transport.encode_all (Service.Frame.transport_of_wire wire) items);
        close_out oc;
        Printf.printf "%d sessions, %d events, %d queries -> %s (%s)\n" sessions
          (Array.length stream)
          (Array.length items - Array.length stream)
          output
          (Service.Transport.wire_to_string wire);
        `Ok ()
      end

let sessions_arg =
  Arg.(
    value & opt int 8
    & info [ "sessions" ] ~docv:"N" ~doc:"Number of concurrent sessions to simulate.")

let record_cmd =
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Run a built-in app as N concurrent sessions and write the interleaved host \
          stream in the daemon wire format.")
    Term.(
      ret
        (const record_cmd_run $ app_arg $ output_arg $ sessions_arg $ seed_arg
       $ wire_arg))

let replay_cmd_run profile_path events_path daemon verify vet_program
    qsig_profile_path log_level log_tail trace_out =
  obs_setup log_level trace_out;
  match Adprom.Profile_io.load profile_path with
  | Error msg -> `Error (false, Printf.sprintf "cannot load profile: %s" msg)
  | Ok profile -> (
      match decode_any (read_file events_path) with
      | Error msg -> `Error (false, Printf.sprintf "cannot load events: %s" msg)
      | Ok items -> (
          let vet_against =
            load_opt
              (fun f ->
                match
                  Analysis.Analyzer.analyze (Applang.Parser.parse_program (read_file f))
                with
                | analysis -> Ok analysis
                | exception e -> Error (Printexc.to_string e))
              vet_program
          in
          let qsig_profile = load_opt Adprom_qsig.Profile.load qsig_profile_path in
          match (vet_against, qsig_profile) with
          | Error msg, _ ->
              `Error (false, Printf.sprintf "cannot analyze --vet-program: %s" msg)
          | _, Error msg ->
              `Error (false, Printf.sprintf "cannot load --qsig-profile: %s" msg)
          | Ok None, _ when daemon.leakage_policy <> None ->
              `Error
                ( false,
                  "--leakage-policy needs --vet-program (the program whose sinks it \
                   judges)" )
          | Ok vet_against, Ok qsig_profile ->
          match
            Service.Replay.run
              (daemon_create daemon ?vet_against ?qsig_profile profile)
              items
          with
          | exception Invalid_argument msg -> `Error (false, msg)
          | outcome ->
          print_outcome ~log_tail outcome;
          obs_finish trace_out;
          if verify then begin
            let mismatches =
              Service.Replay.verify_against_batch profile (call_events items)
                outcome.Service.Replay.summary
            in
            if mismatches = [] then begin
              Printf.printf "\nverify: live verdicts match batch detection exactly\n";
              `Ok ()
            end
            else begin
              Printf.printf "\nverify: %d MISMATCHES\n" (List.length mismatches);
              List.iter
                (fun m -> print_endline ("  " ^ Service.Replay.mismatch_to_string m))
                mismatches;
              `Error (false, "daemon diverged from batch detection")
            end
          end
          else `Ok ()))

let events_file_arg =
  Arg.(
    required
    & pos 1 (some file) None
    & info [] ~docv:"EVENTS" ~doc:"Interleaved event stream (see `adprom record`).")

let verify_flag =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:"Check the streamed verdicts against batch detection on the demuxed traces.")

let vet_program_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "vet-program" ] ~docv:"FILE"
        ~doc:
          "AppLang source the profile claims to model: statically analyze it and vet \
           the profile against it under the $(b,--vet-profile) policy before replaying.")

let replay_cmd =
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Stream a recorded multi-session event file through the monitoring daemon and \
          print per-session verdicts, incidents and metrics.")
    Term.(
      ret
        (const replay_cmd_run $ profile_arg $ events_file_arg $ daemon_flags_term
       $ verify_flag $ vet_program_arg $ qsig_profile_path_arg $ log_level_arg
       $ log_tail_arg $ trace_out_arg))

let serve_cmd_run app_name daemon seed listen node_name log_level log_file
    log_max_bytes log_tail trace_out =
  match obs_setup ?log_file ?log_max_bytes log_level trace_out with
  | exception Invalid_argument msg -> `Error (false, msg)
  | () -> (
  match List.assoc_opt app_name (builtin_apps ()) with
  | None -> `Error (false, Printf.sprintf "unknown app %S; try `adprom list-apps`" app_name)
  | Some app when listen <> None -> (
      (* cluster node: train locally, then monitor whatever a router (or
         nc with a text record file) streams at the port *)
      let port = Option.get listen in
      Printf.printf "Training %s ...\n%!" app.Adprom.Pipeline.name;
      let dataset = Adprom.Pipeline.collect app in
      let profile = Adprom.Pipeline.train dataset in
      let analysis = dataset.Adprom.Pipeline.analysis in
      let qsig = Adprom.Pipeline.train_qsig app in
      match Service.Server.bind port with
      | exception Unix.Unix_error (e, _, _) ->
          `Error (false, Printf.sprintf "cannot listen on port %d: %s" port
                    (Unix.error_message e))
      | socket, port -> (
          Printf.printf "node %s listening on 127.0.0.1:%d ...\n%!" node_name port;
          match
            Service.Server.serve ~socket ~name:node_name ~shards:daemon.shards
              ~queue_capacity:daemon.capacity ~vet_against:analysis
              ~vet_policy:daemon.vet_policy ~static_gate:daemon.static_gate
              ~qsig_mode:daemon.qsig_mode ~qsig_profile:qsig
              ~qsig_static_gate:daemon.qsig_static_gate
              ?leakage_policy:daemon.leakage_policy profile
          with
          | exception Invalid_argument msg -> `Error (false, msg)
          | outcome ->
              print_outcome ~log_tail outcome;
              obs_finish trace_out;
              `Ok ()))
  | Some app ->
      Printf.printf "Training %s ...\n%!" app.Adprom.Pipeline.name;
      let dataset = Adprom.Pipeline.collect app in
      let profile = Adprom.Pipeline.train dataset in
      let analysis = dataset.Adprom.Pipeline.analysis in
      (* Normal tenants: one session per test case, re-run to get the
         run-level outcomes the auditor needs. *)
      let normal =
        List.map
          (fun tc ->
            let trace, outcome = Adprom.Pipeline.run_case ~analysis app tc in
            ("normal", trace, outcome))
          app.Adprom.Pipeline.test_cases
      in
      let qsig = Adprom.Audit.learn (List.map (fun (_, _, o) -> o) normal) in
      (* Malicious tenants: every built-in attack on this app joins the
         same host stream, audited against the query-signature profile. *)
      let attacks =
        List.filter
          (fun (c : Dataset.Ca_attacks.case) ->
            c.Dataset.Ca_attacks.app.Adprom.Pipeline.name = app.Adprom.Pipeline.name)
          (Dataset.Ca_attacks.all ())
      in
      let malicious =
        List.concat_map
          (fun (c : Dataset.Ca_attacks.case) ->
            let app', patches, rewriter =
              Attack.Scenario.apply c.Dataset.Ca_attacks.scenario app
            in
            let analysis' = Adprom.Pipeline.analyze_app app' in
            List.map
              (fun tc ->
                let trace, outcome =
                  Adprom.Pipeline.run_case ~patches ?query_rewriter:rewriter
                    ~analysis:analysis' app' tc
                in
                (c.Dataset.Ca_attacks.label, trace, outcome))
              app'.Adprom.Pipeline.test_cases)
          attacks
      in
      let sessions = normal @ malicious in
      let labels = List.mapi (fun i (l, _, _) -> (i, l)) sessions in
      let rng = Mlkit.Rng.create seed in
      let stream =
        Adprom.Sessions.interleave ~rng (List.map (fun (_, t, _) -> t) sessions)
      in
      Printf.printf "Serving %d sessions (%d normal, %d attack), %d events, %d shards ...\n%!"
        (List.length sessions) (List.length normal) (List.length malicious)
        (Array.length stream) daemon.shards;
      let alerts = Service.Alerts.create () in
      List.iteri
        (fun i (_, _, o) ->
          List.iter
            (Service.Alerts.record_finding alerts ~session:i)
            (Adprom.Audit.audit ~qsig o))
        sessions;
      (* the executed queries of every session join the host stream, so
         the daemon's query axis sees the same traffic the auditor did *)
      let items = host_items stream (List.map (fun (_, _, o) -> o) sessions) in
      match
        Service.Replay.run
          (daemon_create daemon ~alerts ~vet_against:analysis
             ~qsig_profile:qsig profile)
          items
      with
      | exception Invalid_argument msg -> `Error (false, msg)
      | outcome ->
          print_outcome ~labels ~log_tail outcome;
          obs_finish trace_out;
          `Ok ())

let listen_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "listen" ] ~docv:"PORT"
        ~doc:
          "Cluster-node mode: train, then serve a TCP port (0 picks an ephemeral \
           one) instead of generating a local stream. Binary frame and text line \
           connections are autodetected; the node drains and prints its outcome \
           when a router sends Bye.")

let node_name_arg =
  Arg.(
    value & opt string "node"
    & info [ "node-name" ] ~docv:"NAME"
        ~doc:"What the node calls itself in Hello and Summary frames.")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "End-to-end daemon demo: train on a built-in app, interleave its normal \
          sessions with its attack scenarios into one host stream, monitor the stream \
          online and print the unified incident log. With $(b,--listen), serve a TCP \
          port as one node of a cluster instead (see `adprom route`).")
    Term.(
      ret
        (const serve_cmd_run $ app_arg $ daemon_flags_term $ seed_arg
       $ listen_arg $ node_name_arg $ log_level_arg
       $ log_file_arg $ log_max_bytes_arg $ log_tail_arg $ trace_out_arg))

(* --- route: spray a recorded stream across serve nodes ----------------- *)

let connect_fleet node_specs replicas =
  let peers, bad =
    List.partition_map
      (fun s ->
        match Service.Cluster.peer_of_string s with
        | Ok p -> Left p
        | Error e -> Right e)
      node_specs
  in
  match bad with
  | e :: _ -> Error e
  | [] ->
      Result.map_error (Printf.sprintf "cannot connect: %s")
        (Service.Cluster.Router.connect ~replicas peers)

let route_cmd_run events_path node_specs replicas trace_out =
  obs_setup None trace_out;
  let data = read_file events_path in
  match decode_any data with
  | Error msg -> `Error (false, Printf.sprintf "cannot load events: %s" msg)
  | Ok items -> (
      match connect_fleet node_specs replicas with
      | Error e -> `Error (false, e)
      | Ok router -> (
          let t0 = Adprom_obs.Clock.monotonic_ns () in
          match Service.Cluster.Router.send_stream router items with
          | Error e -> `Error (false, Printf.sprintf "send failed: %s" e)
          | Ok () -> (
              (* aggregate metrics while the connections are still up *)
              let dump = Service.Cluster.Router.metrics router in
              (* span collection needs live connections too: refine the
                 clock offsets, then pull each node's spans *)
              let node_spans =
                if trace_out = None then []
                else begin
                  (match Service.Cluster.Router.clock_sync router with
                  | Ok () -> ()
                  | Error e ->
                      Printf.eprintf "(clock sync failed: %s)\n" e);
                  match Service.Cluster.Router.spans router with
                  | Ok groups -> groups
                  | Error e ->
                      Printf.eprintf "(span collection failed: %s)\n" e;
                      []
                end
              in
              match Service.Cluster.Router.finish router with
              | Error e -> `Error (false, Printf.sprintf "shutdown failed: %s" e)
              | Ok summaries ->
                  let seconds = Adprom_obs.Clock.elapsed_s t0 in
                  List.iter
                    (fun (s : Service.Frame.node_summary) ->
                      Printf.printf "node %-12s %d sessions, %d events ingested\n"
                        s.Service.Frame.node
                        (List.length s.Service.Frame.summary.Service.Daemon.sessions)
                        s.Service.Frame.summary.Service.Daemon.events_ingested)
                    summaries;
                  let merged = Service.Cluster.merge summaries in
                  print_newline ();
                  print_summary merged.Service.Frame.summary;
                  Printf.printf "\n--- incident log (%d incidents, cluster-wide) ---\n"
                    (List.length merged.Service.Frame.incidents);
                  if merged.Service.Frame.incidents = [] then print_endline "(empty)"
                  else
                    List.iter
                      (fun (session, text) ->
                        Printf.printf "session %d: %s\n" session text)
                      merged.Service.Frame.incidents;
                  (match dump with
                  | Ok d -> Printf.printf "\n--- metrics (aggregated) ---\n%s" d
                  | Error e ->
                      Printf.printf "\n(metrics aggregation failed: %s)\n" e);
                  let lost = Service.Cluster.Router.lost_items router in
                  if lost > 0 then
                    Printf.printf
                      "\nWARNING: %d item(s) lost across reconnects — verdicts \
                       are not comparable to a single-node replay\n"
                      lost;
                  Printf.printf "\nthroughput: %.0f events/sec (%.3fs, %d nodes)\n"
                    (float_of_int
                       merged.Service.Frame.summary.Service.Daemon.events_ingested
                    /. seconds)
                    seconds (List.length summaries);
                  (match trace_out with
                  | None -> ()
                  | Some path ->
                      let groups =
                        ("router", 0L, Adprom_obs.Trace.spans ())
                        :: node_spans
                      in
                      Adprom_obs.Trace.dump_chrome_cluster path groups;
                      Printf.printf "%d spans across %d processes -> %s\n"
                        (List.fold_left
                           (fun acc (_, _, ss) -> acc + List.length ss)
                           0 groups)
                        (List.length groups) path);
                  `Ok ())))

let route_events_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"EVENTS"
        ~doc:"Recorded stream, text or binary (see `adprom record --wire`).")

let route_nodes_arg =
  Arg.(
    non_empty
    & opt_all string []
    & info [ "node" ] ~docv:"[NAME=]HOST:PORT"
        ~doc:"A serve node to route to (repeatable; see `adprom serve --listen`).")

let route_replicas_arg =
  Arg.(
    value & opt int 64
    & info [ "replicas" ] ~docv:"N"
        ~doc:"Virtual points per node on the consistent-hash ring.")

let route_cmd =
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Spray a recorded stream across serve nodes by consistent session \
          hashing, then print the merged cluster summary, incident log and \
          aggregated metrics. Session-sticky routing keeps cluster verdicts \
          bit-for-bit equal to a single-node replay of the same stream. With \
          $(b,--trace-out), collects every node's spans, aligns them on the \
          router's clock via min-RTT probes and writes one merged Chrome trace.")
    Term.(
      ret
        (const route_cmd_run $ route_events_arg $ route_nodes_arg
       $ route_replicas_arg $ trace_out_arg))

(* --- status / top: the fleet operations plane -------------------------- *)

let fq_float f =
  if Float.is_nan f then "-" else if f = infinity then ">1s" else Printf.sprintf "%.4fs" f

type node_stats = {
  ns_name : string;
  ns_status : Service.Health.status;
  ns_uptime : float;
  ns_offered : int;
  ns_dropped : int;
  ns_depth : int;
  ns_hwm : int;
  ns_p50 : float;
  ns_p99 : float;
  ns_incidents : (int * string) list;
}

let stats ~name ~status ~uptime ~incidents s =
  let depth, hwm = Service.Health.queue s in
  let p50, p99 = Service.Health.e2e_quantiles s in
  {
    ns_name = name;
    ns_status = status;
    ns_uptime = uptime;
    ns_offered = Service.Metrics.snapshot_counter s "adprom_events_offered_total";
    ns_dropped = Service.Metrics.snapshot_counter s "adprom_events_dropped_total";
    ns_depth = depth;
    ns_hwm = hwm;
    ns_p50 = p50;
    ns_p99 = p99;
    ns_incidents = incidents;
  }

let node_stats (name, (h : Service.Frame.health)) =
  stats ~name ~status:h.Service.Frame.h_status ~uptime:h.Service.Frame.h_uptime_s
    ~incidents:h.Service.Frame.h_incidents h.Service.Frame.h_snapshot

(* the fleet rollup: statuses folded to the worst, figures read off the
   merged snapshot *)
let fleet_stats (nodes : (string * Service.Frame.health) list) =
  stats ~name:"fleet"
    ~status:
      (List.fold_left
         (fun acc (_, h) -> Service.Health.worst acc h.Service.Frame.h_status)
         Service.Health.Healthy nodes)
    ~uptime:0.0 ~incidents:[]
    (Service.Metrics.merge_snapshots
       (List.map (fun (_, h) -> h.Service.Frame.h_snapshot) nodes))

let status_json nodes =
  let stats = List.map node_stats nodes in
  let fleet = fleet_stats nodes in
  let node_json n =
    Printf.sprintf
      "{\"node\":\"%s\",\"status\":\"%s\",\"uptime_s\":%.1f,\
       \"events_offered\":%d,\"events_dropped\":%d,\"queue_depth\":%d,\
       \"queue_hwm\":%d,\"e2e_p50_s\":%s,\"e2e_p99_s\":%s,\"incidents\":%d}"
      (Adprom_obs.Json.escape n.ns_name)
      (Service.Health.status_to_string n.ns_status)
      n.ns_uptime n.ns_offered n.ns_dropped n.ns_depth n.ns_hwm
      (Service.Health.quantile_json n.ns_p50) (Service.Health.quantile_json n.ns_p99)
      (List.length n.ns_incidents)
  in
  Printf.sprintf
    "{\"fleet\":{\"status\":\"%s\",\"nodes\":%d,\"events_offered\":%d,\
     \"events_dropped\":%d,\"queue_depth\":%d,\"queue_hwm\":%d,\
     \"e2e_p50_s\":%s,\"e2e_p99_s\":%s},\"nodes\":[%s]}"
    (Service.Health.status_to_string fleet.ns_status)
    (List.length nodes) fleet.ns_offered fleet.ns_dropped fleet.ns_depth
    fleet.ns_hwm
    (Service.Health.quantile_json fleet.ns_p50)
    (Service.Health.quantile_json fleet.ns_p99)
    (String.concat "," (List.map node_json stats))

let status_text nodes =
  let stats = List.map node_stats nodes in
  let fleet = fleet_stats nodes in
  Adprom.Report.print
    ~header:
      [ "node"; "status"; "uptime"; "events"; "dropped"; "queue"; "e2e p50"; "e2e p99" ]
    (List.map
       (fun n ->
         [
           n.ns_name;
           Service.Health.status_to_string n.ns_status;
           Printf.sprintf "%.0fs" n.ns_uptime;
           string_of_int n.ns_offered;
           string_of_int n.ns_dropped;
           string_of_int n.ns_depth;
           fq_float n.ns_p50;
           fq_float n.ns_p99;
         ])
       stats);
  Printf.printf "\nfleet: %s (%d nodes), %d events offered, %d dropped, queue %d, e2e p50 %s p99 %s\n"
    (Service.Health.status_to_string fleet.ns_status)
    (List.length nodes) fleet.ns_offered fleet.ns_dropped fleet.ns_depth
    (fq_float fleet.ns_p50) (fq_float fleet.ns_p99)

let status_cmd_run node_specs replicas format =
  match connect_fleet node_specs replicas with
  | Error e -> `Error (false, e)
  | Ok router -> (
      let result = Service.Cluster.Router.health router in
      Service.Cluster.Router.close router;
      match result with
      | Error e -> `Error (false, e)
      | Ok nodes ->
          (match format with
          | `Json -> print_endline (status_json nodes)
          | `Text -> status_text nodes);
          `Ok ())

let fleet_nodes_arg =
  Arg.(
    non_empty
    & opt_all string []
    & info [ "node" ] ~docv:"[NAME=]HOST:PORT"
        ~doc:"A serve node to scrape (repeatable; see `adprom serve --listen`).")

let status_format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FMT" ~doc:"Output format: $(b,text) or $(b,json).")

let status_cmd =
  Cmd.v
    (Cmd.info "status"
       ~doc:
         "One-shot fleet health: scrape every node over the binary wire \
          (Health_req), print per-node status, throughput counters, queue \
          depth and end-to-end latency quantiles, and the fleet rollup — \
          counters summed, statuses folded to the worst, quantiles computed \
          from the merged histogram buckets. The nodes keep serving.")
    Term.(ret (const status_cmd_run $ fleet_nodes_arg $ route_replicas_arg $ status_format_arg))

(* --- top: live fleet dashboard ----------------------------------------- *)

let top_render ~interval ~prev nodes =
  let stats = List.map node_stats nodes in
  let fleet = fleet_stats nodes in
  (* home + clear-to-end: repaint without scrollback spam *)
  print_string "\027[H\027[J";
  Printf.printf "adprom top — %d nodes, fleet %s, e2e p50 %s p99 %s, queue %d\n\n"
    (List.length stats)
    (Service.Health.status_to_string fleet.ns_status)
    (fq_float fleet.ns_p50) (fq_float fleet.ns_p99) fleet.ns_depth;
  Printf.printf "%-12s %-10s %10s %10s %8s %8s %10s %10s\n" "node" "status"
    "events/s" "events" "dropped" "queue" "e2e p50" "e2e p99";
  List.iter
    (fun n ->
      let rate =
        match Hashtbl.find_opt prev n.ns_name with
        | Some last when interval > 0.0 ->
            Printf.sprintf "%.0f" (float_of_int (n.ns_offered - last) /. interval)
        | _ -> "-"
      in
      Hashtbl.replace prev n.ns_name n.ns_offered;
      Printf.printf "%-12s %-10s %10s %10d %8d %8d %10s %10s\n" n.ns_name
        (Service.Health.status_to_string n.ns_status)
        rate n.ns_offered n.ns_dropped n.ns_depth
        (fq_float n.ns_p50) (fq_float n.ns_p99))
    stats;
  (* incident ticker: the newest few across the fleet *)
  let incidents =
    List.concat_map
      (fun n -> List.map (fun (s, text) -> (n.ns_name, s, text)) n.ns_incidents)
      stats
  in
  let len = List.length incidents in
  let tail = List.filteri (fun i _ -> i >= len - 5) incidents in
  Printf.printf "\n--- incidents (%d total, newest last) ---\n" len;
  if tail = [] then print_endline "(none)"
  else
    List.iter
      (fun (node, session, text) ->
        Printf.printf "%-12s session %d: %s\n" node session text)
      tail;
  flush stdout

let top_cmd_run node_specs replicas interval iterations =
  if interval <= 0.0 then `Error (false, "--interval must be positive")
  else
    match connect_fleet node_specs replicas with
    | Error e -> `Error (false, e)
    | Ok router ->
        let prev = Hashtbl.create 8 in
        let rec loop i =
          match Service.Cluster.Router.health router with
          | Error e ->
              Service.Cluster.Router.close router;
              `Error (false, e)
          | Ok nodes ->
              top_render ~interval ~prev nodes;
              if iterations > 0 && i >= iterations then begin
                Service.Cluster.Router.close router;
                `Ok ()
              end
              else begin
                Unix.sleepf interval;
                loop (i + 1)
              end
        in
        loop 1

let top_interval_arg =
  Arg.(
    value & opt float 2.0
    & info [ "interval" ] ~docv:"SECONDS" ~doc:"Seconds between refreshes.")

let top_iterations_arg =
  Arg.(
    value & opt int 0
    & info [ "iterations" ] ~docv:"N"
        ~doc:"Stop after N refreshes (0 = run until interrupted).")

let top_cmd =
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live fleet dashboard: scrape every node's health each interval and \
          repaint per-node event rate, end-to-end latency quantiles, queue \
          depth, drop counts and an incident ticker. The nodes keep serving; \
          interrupt (or $(b,--iterations)) to stop.")
    Term.(
      ret
        (const top_cmd_run $ fleet_nodes_arg $ route_replicas_arg
       $ top_interval_arg $ top_iterations_arg))

(* --- automaton --------------------------------------------------------- *)

(* Accept the Symbol.to_string spelling back: a bare call name, or
   [name_Q<bid>] for a DB-output-labeled call. *)
let parse_symbol tok =
  let n = String.length tok in
  let rec find i =
    if i <= 0 then None
    else if i + 1 < n && tok.[i] = '_' && tok.[i + 1] = 'Q' then
      match int_of_string_opt (String.sub tok (i + 2) (n - i - 2)) with
      | Some bid -> Some (String.sub tok 0 i, bid)
      | None -> find (i - 1)
    else find (i - 1)
  in
  match find (n - 2) with
  | Some (name, bid) -> Analysis.Symbol.lib ~label:bid name
  | None -> Analysis.Symbol.lib tok

let automaton_cmd_run file entry no_labels budget dot_out queries accepts_run
    inputs =
  let source = read_file file in
  let program = Applang.Parser.parse_program source in
  let analysis = Analysis.Analyzer.analyze ~entry program in
  let auto =
    Analysis.Seqauto.build ~entry ~use_labels:(not no_labels) ~state_budget:budget
      analysis.Analysis.Analyzer.pruned_cfgs analysis.Analysis.Analyzer.callgraph
  in
  print_endline (Analysis.Seqauto.stats_to_string auto.Analysis.Seqauto.stats);
  (match dot_out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Analysis.Dfa.to_dot auto.Analysis.Seqauto.dfa);
      close_out oc;
      Printf.printf "DFA written to %s\n" path);
  List.iter
    (fun q ->
      let syms =
        String.split_on_char ' ' q
        |> List.filter (fun s -> s <> "")
        |> List.map parse_symbol
      in
      Printf.printf "%-8s %s\n"
        (if Analysis.Seqauto.accepts auto syms then "accept" else "reject")
        q)
    queries;
  if not accepts_run then `Ok ()
  else begin
    let engine = Sqldb.Engine.create () in
    let tc = Runtime.Testcase.make ~input:inputs "cli-automaton" in
    let trace, outcome = Runtime.Interp.collect_trace ~analysis ~engine tc in
    (match outcome.Runtime.Interp.status with
    | Ok () -> ()
    | Error msg -> Printf.eprintf "runtime error: %s\n" msg);
    let syms =
      Array.to_list
        (Array.map
           (fun (e : Runtime.Collector.event) -> e.Runtime.Collector.symbol)
           trace)
    in
    if Analysis.Seqauto.accepts auto syms then begin
      Printf.printf "accept   collected trace (%d library calls)\n"
        (List.length syms);
      `Ok ()
    end
    else
      `Error
        ( false,
          Printf.sprintf
            "soundness violation: the collected trace (%d library calls) is \
             outside the automaton's language"
            (List.length syms) )
  end

let automaton_budget_arg =
  Arg.(
    value & opt int 20_000
    & info [ "budget" ] ~docv:"N"
        ~doc:
          "NFA state budget for call-site inlining; past it construction falls \
           back to one shared instance per function (flat, still sound).")

let no_labels_flag =
  Arg.(
    value & flag
    & info [ "no-labels" ]
        ~doc:"Strip DB-output labels from the alphabet (the CMarkov view).")

let automaton_dot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"FILE" ~doc:"Write the minimized DFA as Graphviz to FILE.")

let accepts_arg =
  Arg.(
    value & opt_all string []
    & info [ "accepts" ] ~docv:"SYMS"
        ~doc:
          "Query factor membership of a space-separated call sequence, e.g. \
           $(b,--accepts \"read printf_Q6\") (repeatable). Prints accept/reject.")

let accepts_run_flag =
  Arg.(
    value & flag
    & info [ "accepts-run" ]
        ~doc:
          "Interpret the program (with $(b,-i) inputs) and query the collected \
           trace against the automaton; a rejection is a soundness violation and \
           exits non-zero.")

let automaton_cmd =
  Cmd.v
    (Cmd.info "automaton"
       ~doc:
         "Compile a program's interprocedural call-sequence automaton (branch \
          pruning, call-site inlining, subset construction, Hopcroft minimization) \
          and print its statistics; optionally export the DFA and query window \
          feasibility.")
    Term.(
      ret
        (const automaton_cmd_run $ file_arg $ entry_arg $ no_labels_flag
       $ automaton_budget_arg $ automaton_dot_arg $ accepts_arg $ accepts_run_flag
       $ inputs_arg))

(* --- explain ----------------------------------------------------------- *)

let explain_cmd_run profile_path events_path session window_idx top =
  match Adprom.Profile_io.load profile_path with
  | Error msg -> `Error (false, Printf.sprintf "cannot load profile: %s" msg)
  | Ok profile -> (
      match decode_any (read_file events_path) with
      | Error msg -> `Error (false, Printf.sprintf "cannot load events: %s" msg)
      | Ok items -> (
          match
            List.assoc_opt session (Adprom.Sessions.demux (call_events items))
          with
          | None -> `Error (false, Printf.sprintf "no session %d in %s" session events_path)
          | Some trace ->
              let engine = Adprom.Scoring.create profile in
              let windows =
                Adprom.Window.of_trace
                  ~window:profile.Adprom.Profile.params.Adprom.Profile.window trace
              in
              let wanted i =
                match window_idx with Some k -> i = k | None -> true
              in
              let explained = ref 0 in
              List.iteri
                (fun i w ->
                  if wanted i then
                    match Adprom.Scoring.explain ~top engine w with
                    | None -> ()
                    | Some e ->
                        incr explained;
                        Printf.printf "window %d: %s\n  %s\n" i
                          (Adprom.Detector.flag_to_string
                             e.Adprom.Scoring.verdict.Adprom.Detector.flag)
                          (Adprom.Scoring.explanation_to_string e))
                windows;
              if !explained = 0 then
                (match window_idx with
                | Some k -> Printf.printf "window %d is normal: nothing to explain\n" k
                | None ->
                    Printf.printf "all %d windows normal: nothing to explain\n"
                      (List.length windows));
              `Ok ()))

let explain_session_arg =
  Arg.(
    required
    & opt (some int) None
    & info [ "session" ] ~docv:"N" ~doc:"Session id within the event stream.")

let window_index_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "window" ] ~docv:"K"
        ~doc:"Explain only the K-th window (default: every anomalous window).")

let top_arg =
  Arg.(
    value & opt int 3
    & info [ "top" ] ~docv:"K" ~doc:"Surprising steps to rank per explanation.")

let explain_cmd =
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain why windows of a recorded session are flagged: which gate fired \
          (unknown symbol, out-of-context pair, likelihood below threshold), the \
          threshold margin, and the most surprising steps under the profile's HMM.")
    Term.(
      ret
        (const explain_cmd_run $ profile_arg $ events_file_arg $ explain_session_arg
       $ window_index_arg $ top_arg))

(* --- qsig: the query-signature detection axis -------------------------- *)

let qsig_train_cmd_run app_name output =
  match List.assoc_opt app_name (builtin_apps ()) with
  | None -> `Error (false, Printf.sprintf "unknown app %S; try `adprom list-apps`" app_name)
  | Some app ->
      Printf.printf "Collecting query logs and training %s ...\n%!"
        app.Adprom.Pipeline.name;
      let profile = Adprom.Pipeline.train_qsig app in
      Adprom_qsig.Profile.save profile output;
      Printf.printf
        "Query-signature profile written to %s (%d signatures, %d malformed)\n"
        output
        (Adprom_qsig.Profile.cardinality profile)
        (Adprom_qsig.Profile.malformed_count profile);
      `Ok ()

let qsig_profile_pos_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"QSIG_PROFILE"
        ~doc:"Serialized query-signature profile (see `adprom qsig train`).")

let qsig_show_cmd_run profile_path format =
  match Adprom_qsig.Profile.load profile_path with
  | Error msg -> `Error (false, Printf.sprintf "cannot load qsig profile: %s" msg)
  | Ok profile ->
      (match format with
      | `Json -> print_endline (Adprom_qsig.Profile.to_json profile)
      | `Text ->
          Printf.printf "%d signatures, %d malformed training queries\n"
            (Adprom_qsig.Profile.cardinality profile)
            (Adprom_qsig.Profile.malformed_count profile);
          Adprom_qsig.Profile.fold
            (fun signature (e : Adprom_qsig.Profile.entry) () ->
              Printf.printf "\n%s\n  seen %d times, %d slot(s)" signature
                e.Adprom_qsig.Profile.count
                (Array.length e.Adprom_qsig.Profile.slots);
              let band = e.Adprom_qsig.Profile.band in
              if band.Adprom_qsig.Constraints.samples > 0 then
                Printf.printf ", result rows in [%d, %d] over %d sample(s)"
                  band.Adprom_qsig.Constraints.blo
                  band.Adprom_qsig.Constraints.bhi
                  band.Adprom_qsig.Constraints.samples;
              print_newline ();
              Array.iteri
                (fun i slot ->
                  Printf.printf "  slot %d: %s\n" i
                    (Adprom_qsig.Constraints.slot_to_string slot))
                e.Adprom_qsig.Profile.slots)
            profile ());
      `Ok ()

let qsig_policy_arg =
  Arg.(
    value
    & opt
        (enum Adprom_qsig.Constraints.[ ("strict", Strict); ("flexible", Flexible) ])
        Adprom_qsig.Constraints.Strict
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:
          "Constraint policy: $(b,strict) (exact trained sets/ranges) or \
           $(b,flexible) (trained ranges widened by their own span).")

let qsig_sql_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "sql" ] ~docv:"SQL" ~doc:"The executed query text to check.")

let qsig_rows_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "rows" ] ~docv:"N"
        ~doc:"Result cardinality the DBMS reported (enables the band check).")

let qsig_check_cmd_run profile_path sql rows policy =
  match Adprom_qsig.Profile.load profile_path with
  | Error msg -> `Error (false, Printf.sprintf "cannot load qsig profile: %s" msg)
  | Ok profile ->
      let engine = Adprom_qsig.Engine.create ~policy profile in
      let verdict = Adprom_qsig.Engine.check ?rows engine sql in
      print_endline (Adprom_qsig.Engine.verdict_to_string verdict);
      if verdict.Adprom_qsig.Engine.anomalous then
        `Error (false, "query is anomalous under the trained profile")
      else `Ok ()

let qsig_cmd =
  Cmd.group
    (Cmd.info "qsig"
       ~doc:
         "The query-signature detection axis: train per-signature constraint \
          profiles from an app's normal query logs, inspect them, and check \
          individual executed queries.")
    [
      Cmd.v
        (Cmd.info "train"
           ~doc:
             "Run a built-in app's test cases and learn its query-signature \
              profile (structural signatures, per-slot constraints, \
              result-cardinality bands).")
        Term.(ret (const qsig_train_cmd_run $ app_arg $ output_arg));
      Cmd.v
        (Cmd.info "show" ~doc:"Print a trained query-signature profile.")
        Term.(ret (const qsig_show_cmd_run $ qsig_profile_pos_arg $ vet_format_arg));
      Cmd.v
        (Cmd.info "check"
           ~doc:
             "Check one executed query against a trained profile; exits non-zero \
              when the query is anomalous.")
        Term.(
          ret
            (const qsig_check_cmd_run $ qsig_profile_pos_arg $ qsig_sql_arg
           $ qsig_rows_arg $ qsig_policy_arg));
    ]

(* --- list-apps --------------------------------------------------------- *)

let list_cmd =
  Cmd.v
    (Cmd.info "list-apps" ~doc:"List the built-in subject applications.")
    Term.(
      ret
        (const (fun () ->
             List.iter
               (fun (key, (app : Adprom.Pipeline.app)) ->
                 Printf.printf "%-12s %s (%d test cases)\n" key app.Adprom.Pipeline.name
                   (List.length app.Adprom.Pipeline.test_cases))
               (builtin_apps ());
             `Ok ())
        $ const ()))

let () =
  let doc = "AD-PROM: anomaly detection against data leakage by application programs" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "adprom" ~doc)
          [
            analyze_cmd;
            vet_cmd;
            leakage_cmd;
            run_cmd;
            demo_cmd;
            train_cmd;
            check_cmd;
            record_cmd;
            replay_cmd;
            serve_cmd;
            route_cmd;
            status_cmd;
            top_cmd;
            qsig_cmd;
            automaton_cmd;
            explain_cmd;
            list_cmd;
          ]))
