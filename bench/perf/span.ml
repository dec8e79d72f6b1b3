(* The benchmark's own span recorder, independent of the program's
   tracing: spans wrap the calls the benchmark makes into each layer,
   live in memory while a pass runs, and are written out as one Chrome
   trace when the workload ends. Only the calling domain records. *)

type span = {
  name : string;
  id : int;
  parent : int option;
  start_ns : int64;
  mutable stop_ns : int64;
}

let enabled = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let clear () =
  spans := [];
  stack := []

(* Run [f] under a span named [name]; the plain call when disabled. *)
let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let s =
      {
        name;
        id;
        parent = (match !stack with p :: _ -> Some p | [] -> None);
        start_ns = Stats.now_ns ();
        stop_ns = 0L;
      }
    in
    spans := s :: !spans;
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop_ns <- Stats.now_ns ();
        stack := List.tl !stack)
      f
  end

let recorded () = List.rev !spans
let dur s = Int64.sub s.stop_ns s.start_ns

(* Per name: total self time (duration minus the time covered by
   direct children) in ns, and the number of spans, sorted by self
   time, largest first. *)
let self_times ?(under = fun _ -> true) () =
  let all = recorded () in
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
          Hashtbl.replace child_ns p
            (Int64.add (dur s) (Option.value ~default:0L (Hashtbl.find_opt child_ns p)))
      | None -> ())
    all;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if under s then begin
        let self =
          Int64.sub (dur s) (Option.value ~default:0L (Hashtbl.find_opt child_ns s.id))
        in
        let t, n = Option.value ~default:(0L, 0) (Hashtbl.find_opt by_name s.name) in
        Hashtbl.replace by_name s.name (Int64.add t self, n + 1)
      end)
    all;
  Hashtbl.fold (fun name (t, n) acc -> (name, Int64.to_float t, n) :: acc) by_name []
  |> List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a)

(* Chrome trace_event JSON: one complete ("X") event per span, times in
   microseconds from the first span. *)
let write_chrome path =
  let all = recorded () in
  let t0 = match all with s :: _ -> s.start_ns | [] -> 0L in
  let us ns = Int64.to_float (Int64.sub ns t0) /. 1e3 in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc
        "\n{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d%s}}"
        (Json.string s.name) (us s.start_ns)
        (Int64.to_float (dur s) /. 1e3)
        s.id
        (match s.parent with Some p -> Printf.sprintf ",\"parent\":%d" p | None -> ""))
    all;
  output_string oc "\n]}\n";
  close_out oc
