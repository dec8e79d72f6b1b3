(* Printing results, the results-file format, BENCHMARK.json, and the
   [compare] / [summary] readers of results files. *)

open Run

(* --- BENCHMARK.json ----------------------------------------------------- *)

type spec = { m_name : string; m_unit : string; higher : bool; bound : float option }

let load_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

(* The end-to-end and per-layer metric lists of a BENCHMARK.json. *)
let load_benchmark path =
  match Json.parse (load_file path) with
  | Error e -> Error (path ^ ": " ^ e)
  | Ok j ->
      let specs key =
        List.filter_map
          (fun m ->
            match (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)) with
            | Some m_name, Some m_unit ->
                Some
                  {
                    m_name;
                    m_unit;
                    higher = Json.to_str (Json.member "better" m) = Some "higher";
                    bound = Json.to_num (Json.member "bound" m);
                  }
            | _ -> None)
          (Json.to_list (Json.member key j))
      in
      Ok (specs "end_to_end", specs "per_layer")

(* The run printed exactly the metrics BENCHMARK.json lists, with the
   same units. *)
let matches_benchmark path (r : result) =
  match load_benchmark path with
  | Error e -> Check.gate "metrics match BENCHMARK.json" false e
  | Ok (e2e, layer) ->
      let names l = List.map (fun m -> (m.name, m.unit_)) l in
      let listed l = List.map (fun s -> (s.m_name, s.m_unit)) l in
      let ok =
        names r.e2e = listed e2e && ((not r.traced) || names r.layer = listed layer)
      in
      Check.gate "metrics match BENCHMARK.json" ok
        (Printf.sprintf "%d end-to-end, %d per-layer" (List.length e2e) (List.length layer))

(* --- printing --------------------------------------------------------------- *)

let print_metric m =
  let q1, q3 = Stats.quartiles m.samples in
  if List.length m.samples > 1 then
    Printf.printf "  %-40s %14.6g %-6s median of %d [q1 %.6g, q3 %.6g]\n" m.name m.value m.unit_
      (List.length m.samples) q1 q3
  else Printf.printf "  %-40s %14.6g %-6s\n" m.name m.value m.unit_

let print_result (r : result) =
  Printf.printf "\n== %s (seed %d, %g s%s) ==\n" r.workload r.seed r.seconds
    (if r.traced then ", traced" else "");
  Printf.printf "correctness gates:\n";
  Check.print r.gates;
  if r.validity <> [] then begin
    Printf.printf "run validity (a failure marks measurements invalid, not outputs wrong):\n";
    Check.print r.validity
  end;
  Printf.printf "end-to-end (untraced reps):\n";
  List.iter print_metric r.e2e;
  Printf.printf "  attempted %d items, failed %d\n" r.attempted r.failed;
  if r.traced then begin
    Printf.printf "per-layer (traced pass and layer probes):\n";
    List.iter print_metric r.layer;
    Printf.printf "cost stack, ns per call event:\n";
    let sum = List.fold_left (fun a (_, ns) -> a +. ns) 0. r.stack in
    List.iter (fun (name, ns) -> Printf.printf "  %-28s %10.1f\n" name ns) r.stack;
    Printf.printf "  %-28s %10.1f\n" "sum of layers" sum;
    Printf.printf "  %-28s %10.1f\n" "wall (1e9 / events_per_s)" r.wall_ns;
    Printf.printf "  %-28s %10.1f  (negative: layers overlapped on two cores)\n" "unexplained"
      (r.wall_ns -. sum);
    Printf.printf "  %d flush-window incidents left out of alert latency\n" r.flush_windows;
    Printf.printf "self time per span (traced reps), ns per call event:\n";
    List.iter
      (fun (name, ns, k) -> Printf.printf "  %-28s %10.1f  (%d spans)\n" name ns k)
      r.self_times
  end;
  flush stdout

let correct (r : result) = List.for_all (fun (g : Check.gate) -> g.Check.ok) r.gates
let valid (r : result) = List.for_all (fun (g : Check.gate) -> g.Check.ok) r.validity

(* The result line: end-to-end metrics untraced, per-layer traced. *)
let result_line (r : result) =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (correct r));
         ("attempted", Json.Num (float_of_int r.attempted));
         ("failed", Json.Num (float_of_int r.failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun m -> (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
                (if r.traced then r.layer else r.e2e)) );
       ])

(* One results-file line: every metric with its samples. *)
let record_line (r : result) =
  let metric m =
    let q1, q3 = Stats.quartiles m.samples in
    ( m.name,
      Json.Obj
        [
          ("unit", Json.Str m.unit_);
          ("value", Json.Num m.value);
          ("q1", Json.Num q1);
          ("q3", Json.Num q3);
          ("n", Json.Num (float_of_int (List.length m.samples)));
          ("samples", Json.Arr (List.map (fun x -> Json.Num x) m.samples));
        ] )
  in
  Json.to_string
    (Json.Obj
       [
         ("workload", Json.Str r.workload);
         ("seed", Json.Num (float_of_int r.seed));
         ("seconds", Json.Num r.seconds);
         ("traced", Json.Bool r.traced);
         ("correct", Json.Bool (correct r));
         ("valid", Json.Bool (valid r));
         ("attempted", Json.Num (float_of_int r.attempted));
         ("failed", Json.Num (float_of_int r.failed));
         ("metrics", Json.Obj (List.map metric (r.e2e @ r.layer)));
         ("stack_ns_per_event", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) r.stack));
         ("wall_ns_per_event", Json.Num r.wall_ns);
       ])

let append_record path r =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (record_line r ^ "\n");
  close_out oc

(* The in-process vs TCP gap on the same stream, layer by layer. *)
let print_gap results =
  let find name = List.find_opt (fun r -> r.workload = name && r.traced) results in
  match (find "bank-burst", find "bank-tcp") with
  | Some b, Some t ->
      Printf.printf "\n== bank-burst -> bank-tcp: where the serve-path ns per call go ==\n";
      let row name =
        let get r = Option.value ~default:0. (List.assoc_opt name r.stack) in
        Printf.printf "  %-28s %10.1f %10.1f %+10.1f\n" name (get b) (get t) (get t -. get b)
      in
      Printf.printf "  %-28s %10s %10s %10s\n" "" "burst" "tcp" "delta";
      List.iter row (List.map fst t.stack);
      let sum r = List.fold_left (fun a (_, ns) -> a +. ns) 0. r.stack in
      Printf.printf "  %-28s %10.1f %10.1f %+10.1f\n" "sum of layers" (sum b) (sum t) (sum t -. sum b);
      Printf.printf "  %-28s %10.1f %10.1f %+10.1f\n" "wall" b.wall_ns t.wall_ns (t.wall_ns -. b.wall_ns);
      Printf.printf "  %-28s %10.1f %10.1f %+10.1f\n" "unexplained" (b.wall_ns -. sum b)
        (t.wall_ns -. sum t)
        (t.wall_ns -. sum t -. (b.wall_ns -. sum b));
      let value r name = Option.fold ~none:nan ~some:(fun m -> m.value) (find_metric r name) in
      Printf.printf "  %-28s %10.1f %10.1f\n  %-28s %10s %10.1f\n  %-28s %10s %10.1f\n"
        "CPU, all processes" (value b "cpu_ns_per_event") (value t "cpu_ns_per_event")
        "  router process" "" (value t "tcp.router_cpu_ns_per_event") "  node process" ""
        (value t "tcp.node_cpu_ns_per_event")
  | _ -> ()

(* --- reading results files ------------------------------------------------- *)

type run_metric = { value : float; samples : float list }

(* workload -> metric -> per-run values *)
let load_results path =
  let lines = String.split_on_char '\n' (load_file path) in
  List.filter_map
    (fun line ->
      if String.trim line = "" then None
      else
        match Json.parse line with
        | Error e -> failwith (path ^ ": " ^ e)
        | Ok j ->
            let workload = Option.value ~default:"?" (Json.to_str (Json.member "workload" j)) in
            let metrics =
              match Json.member "metrics" j with
              | Some (Json.Obj l) ->
                  List.filter_map
                    (fun (name, m) ->
                      match Json.to_num (Json.member "value" m) with
                      | Some value ->
                          let samples =
                            List.filter_map (fun x -> Json.to_num (Some x))
                              (Json.to_list (Json.member "samples" m))
                          in
                          Some (name, { value; samples })
                      | None -> None)
                    l
              | _ -> []
            in
            Some (workload, metrics))
    lines

(* Samples of a metric on a workload, and how many runs they come
   from: the per-run values when the file holds several runs of it,
   else the one run's own samples (reps, set-ups). Either way the
   readers compare medians: a run reports the median of its samples. *)
let samples runs workload name =
  let values =
    List.filter_map
      (fun (w, ms) -> if w = workload then List.assoc_opt name ms else None)
      runs
  in
  match values with
  | [] -> ([], 0)
  | [ one ] -> ((if one.samples = [] then [ one.value ] else one.samples), 1)
  | many -> (List.map (fun m -> m.value) many, List.length many)

let workloads runs = List.sort_uniq compare (List.map fst runs)

let all_specs bench =
  match load_benchmark bench with
  | Ok (e2e, layer) -> e2e @ layer
  | Error e -> failwith e

(* The verdict rules, from the base run's point of view: improved when
   nine in ten cross pairs favour the change and the medians differ by
   more than the base's quartile spread; unresolved
   when the base's own spread is wider than the bound; worse beyond the
   bound (per-layer metrics, which have none, use the base's spread).
   A gain, or a per-layer loss, needs ten runs a side: the reps of one
   run do not see the drift between runs. *)
let verdict spec (a, runs_a) (b, runs_b) =
  let enough = runs_a >= 10 && runs_b >= 10 in
  let ma = Stats.median a and mb = Stats.median b in
  let q1, q3 = Stats.quartiles a in
  let iqr = q3 -. q1 in
  let better x y = if spec.higher then x > y else x < y in
  let pairs f =
    let wins = List.fold_left (fun n x -> n + List.length (List.filter (fun y -> f y x) b)) 0 a in
    float_of_int wins /. float_of_int (max 1 (List.length a * List.length b))
  in
  let worse_share = (if spec.higher then ma -. mb else mb -. ma) /. Float.abs ma in
  let spread = iqr /. Float.abs ma in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> better y x) a) b in
  if enough && pairs better >= 0.9 && Float.abs (mb -. ma) > iqr then "improved"
  else
    match spec.bound with
    | Some bound when spread > bound && not all_better -> "unresolved"
    | Some bound -> if worse_share > bound then "worse" else "within-bound"
    | None ->
        if enough && pairs (fun y x -> better x y) >= 0.9 && Float.abs (mb -. ma) > iqr then "worse"
        else "within-bound"

let compare_files ~bench a_path b_path =
  let a = load_results a_path and b = load_results b_path in
  let specs = all_specs bench in
  Printf.printf "%-12s %-38s %14s %14s %9s  %s\n" "workload" "metric" "base" "change" "delta"
    "verdict";
  let worse = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun spec ->
          match (samples a w spec.m_name, samples b w spec.m_name) with
          | ([], _), _ | _, ([], _) -> ()
          | (sa, _), (sb, _) when Stats.median sa = 0. && Stats.median sb = 0. ->
              () (* a layer this workload does not run *)
          | ((sa, _) as ra), ((sb, _) as rb) ->
              let ma = Stats.median sa and mb = Stats.median sb in
              let v = verdict spec ra rb in
              if v = "worse" && spec.bound <> None then incr worse;
              Printf.printf "%-12s %-38s %14.6g %14.6g %+8.1f%%  %s\n" w spec.m_name ma mb
                (100. *. (mb -. ma) /. Float.abs ma)
                v)
        specs)
    (workloads a);
  !worse

(* Median, quartiles and spread (IQR over median) of every metric per
   workload, flagging end-to-end spreads above a third of the bound. *)
let summarize ~bench path =
  let runs = load_results path in
  let specs = all_specs bench in
  Printf.printf "%-12s %-38s %4s %14s %14s %14s %8s  %s\n" "workload" "metric" "n" "median" "q1"
    "q3" "spread" "bound/3";
  let steady = ref true in
  List.iter
    (fun w ->
      List.iter
        (fun spec ->
          match samples runs w spec.m_name with
          | [], _ -> ()
          | s, _ ->
              let m = Stats.median s and q1, q3 = Stats.quartiles s in
              let spread = (q3 -. q1) /. Float.abs m in
              let flag =
                match spec.bound with
                | Some b when spec.m_name <> "setup_s" && spread > b /. 3. ->
                    steady := false;
                    Printf.sprintf "%.3f  WIDE" (b /. 3.)
                | Some b -> Printf.sprintf "%.3f" (b /. 3.)
                | None -> "-"
              in
              Printf.printf "%-12s %-38s %4d %14.6g %14.6g %14.6g %8.4f  %s\n" w spec.m_name
                (List.length s) m q1 q3 spread flag)
        specs)
    (workloads runs);
  !steady
