type span = {
  name : string;
  trace_id : int;
  span_id : int;
  parent : int option;
  domain : int;
  start_ns : int64;
  dur_ns : int64;
  attrs : (string * string) list;
}

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

let next_id = Atomic.make 1

(* Per-domain stack of open spans: (trace_id, span_id), innermost
   first. *)
let context : (int * int) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let current_trace_id () =
  match !(Domain.DLS.get context) with [] -> None | (tid, _) :: _ -> Some tid

(* Finished spans: a bounded ring plus the hook list, one mutex. *)
let mutex = Mutex.create ()
let ring = ref (Ring.create 65536)

type hook = int

let hooks : (int * (span -> unit)) list ref = ref []
let next_hook = ref 0

let set_capacity n =
  Mutex.lock mutex;
  (match Ring.create n with
  | r -> ring := r
  | exception e ->
      Mutex.unlock mutex;
      raise e);
  Mutex.unlock mutex

let spans () =
  Mutex.lock mutex;
  let l = Ring.to_list !ring in
  Mutex.unlock mutex;
  l

let span_count () =
  Mutex.lock mutex;
  let n = Ring.pushed !ring in
  Mutex.unlock mutex;
  n

let clear () =
  Mutex.lock mutex;
  Ring.clear !ring;
  Mutex.unlock mutex

let on_span_end f =
  Mutex.lock mutex;
  incr next_hook;
  let id = !next_hook in
  hooks := (id, f) :: !hooks;
  Mutex.unlock mutex;
  id

let remove_hook id =
  Mutex.lock mutex;
  hooks := List.filter (fun (i, _) -> i <> id) !hooks;
  Mutex.unlock mutex

let record sp =
  Mutex.lock mutex;
  Ring.push !ring sp;
  let hs = !hooks in
  Mutex.unlock mutex;
  List.iter
    (fun (id, f) -> try f sp with _ -> remove_hook id)
    hs

let fresh_id () = Atomic.fetch_and_add next_id 1

let record_span ?(attrs = []) ~trace_id ~name ~start_ns ~dur_ns () =
  (* deliberately NOT gated on the enabled flag: externally-timed spans
     only exist because some process already decided to trace (a router
     propagating a Trace_mark), and that decision must not require every
     node to flip its own switch. The buffer stays bounded either way. *)
  let span_id = fresh_id () in
  record
    {
      name;
      trace_id;
      span_id;
      parent = None;
      domain = (Domain.self () :> int);
      start_ns;
      dur_ns;
      attrs;
    }

let with_span ?attrs name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let stack = Domain.DLS.get context in
    let parent, trace_id, span_id =
      let sid = Atomic.fetch_and_add next_id 1 in
      match !stack with
      | [] -> (None, sid, sid)
      | (tid, psid) :: _ -> (Some psid, tid, sid)
    in
    stack := (trace_id, span_id) :: !stack;
    let t0 = Clock.monotonic_ns () in
    let finish () =
      let dur = Int64.sub (Clock.monotonic_ns ()) t0 in
      (stack :=
         match !stack with
         | (_, sid) :: rest when sid = span_id -> rest
         | other -> other (* a thunk that unwound the stack itself *));
      let attrs =
        match attrs with None -> [] | Some f -> ( try f () with _ -> [])
      in
      record
        {
          name;
          trace_id;
          span_id;
          parent;
          domain = (Domain.self () :> int);
          start_ns = t0;
          dur_ns = dur;
          attrs;
        }
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* --- Chrome trace_event export ----------------------------------------- *)

let us ns = Int64.to_float ns /. 1e3

let span_event ~pid ~epoch sp =
  let args =
    [
      ("trace_id", Json.string (string_of_int sp.trace_id));
      ("span_id", Json.string (string_of_int sp.span_id));
    ]
    @ (match sp.parent with
      | Some p -> [ ("parent", Json.string (string_of_int p)) ]
      | None -> [])
    @ List.map (fun (k, v) -> (k, Json.string v)) sp.attrs
  in
  Json.obj
    [
      ("name", Json.string sp.name);
      ("cat", Json.string "adprom");
      ("ph", Json.string "X");
      ("pid", string_of_int pid);
      ("tid", string_of_int sp.domain);
      ("ts", Printf.sprintf "%.3f" (us (Int64.sub sp.start_ns epoch)));
      ("dur", Printf.sprintf "%.3f" (us sp.dur_ns));
      ("args", Json.obj args);
    ]

let render events =
  "{\"traceEvents\":[\n" ^ String.concat ",\n" events
  ^ "\n],\"displayTimeUnit\":\"ms\"}\n"

let to_chrome_json spans =
  let epoch =
    List.fold_left
      (fun acc sp -> if sp.start_ns < acc then sp.start_ns else acc)
      (match spans with [] -> 0L | sp :: _ -> sp.start_ns)
      spans
  in
  render (List.map (span_event ~pid:1 ~epoch) spans)

let to_chrome_json_cluster groups =
  (* Each group is one process's spans, timed by that process's own
     monotonic clock; [offset_ns] maps it onto the reference clock
     (local_ns - offset_ns = reference_ns, i.e. offset = local - ref,
     what a min-RTT clock probe estimates). Aligning first and only
     then picking the epoch keeps cross-process ordering. *)
  let aligned =
    List.map
      (fun (name, offset_ns, spans) ->
        ( name,
          List.map
            (fun sp -> { sp with start_ns = Int64.sub sp.start_ns offset_ns })
            spans ))
      groups
  in
  let epoch =
    List.fold_left
      (fun acc (_, spans) ->
        List.fold_left
          (fun acc sp -> if sp.start_ns < acc then sp.start_ns else acc)
          acc spans)
      Int64.max_int aligned
  in
  let epoch = if epoch = Int64.max_int then 0L else epoch in
  let events =
    List.concat
      (List.mapi
         (fun i (name, spans) ->
           let pid = i + 1 in
           Json.obj
             [
               ("name", Json.string "process_name");
               ("ph", Json.string "M");
               ("pid", string_of_int pid);
               ("args", Json.obj [ ("name", Json.string name) ]);
             ]
           :: List.map (span_event ~pid ~epoch) spans)
         aligned)
  in
  render events

let dump_chrome path =
  let oc = open_out path in
  output_string oc (to_chrome_json (spans ()));
  close_out oc

let dump_chrome_cluster path groups =
  let oc = open_out path in
  output_string oc (to_chrome_json_cluster groups);
  close_out oc
