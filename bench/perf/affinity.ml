(* Thread placement for the timed phases. Left to the scheduler, the
   acceptor and the daemon's worker domain can share one CPU for
   seconds at a time while the other idles, which swings throughput
   between reps. With two or more CPUs allowed, the benchmark pins
   its own threads (acceptor and load generator) to the first and every
   daemon worker thread to the second; with one CPU it pins nothing. *)

external pin : int -> int -> bool = "caml_perf_pin"
external allowed_cpus : unit -> int array = "caml_perf_allowed_cpus"

let tasks pid =
  match Sys.readdir (Printf.sprintf "/proc/%d/task" pid) with
  | names -> List.filter_map int_of_string_opt (Array.to_list names)
  | exception Sys_error _ -> []

(* (front, worker) CPUs, read once before any pinning. *)
let plan =
  lazy
    (let cpus = allowed_cpus () in
     if Array.length cpus >= 2 then Some (cpus.(0), cpus.(1)) else None)

let pin_all tids cpu = List.iter (fun tid -> ignore (pin tid cpu)) tids

(* Pin every thread of this process to the front CPU. *)
let pin_front () =
  match Lazy.force plan with
  | Some (front, _) -> pin_all (tasks (Unix.getpid ())) front
  | None -> ()

(* Run [f]; the threads it leaves behind in this process (a daemon's
   worker domain) go to the worker CPU. *)
let with_worker f =
  match Lazy.force plan with
  | None -> f ()
  | Some (_, worker) ->
      let before = tasks (Unix.getpid ()) in
      let r = f () in
      pin_all (List.filter (fun t -> not (List.mem t before)) (tasks (Unix.getpid ()))) worker;
      r

(* A forked node: its main thread (the acceptor) to the front CPU,
   its other threads (the worker domain) to the worker CPU. *)
let place_node pid =
  match Lazy.force plan with
  | None -> ()
  | Some (front, worker) ->
      List.iter (fun tid -> ignore (pin tid (if tid = pid then front else worker))) (tasks pid)
