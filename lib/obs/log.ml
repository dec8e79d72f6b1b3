type level =
  | Debug
  | Info
  | Warn
  | Error

let level_index = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

type value =
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

type event = {
  time : float;
  level : level;
  scope : string;
  message : string;
  fields : (string * value) list;
}

let value_to_json = function
  | Bool b -> if b then "true" else "false"
  | Int i -> string_of_int i
  | Float f -> Json.float f
  | Str s -> Json.string s

let event_to_json e =
  Json.obj
    ([
       ("ts", Printf.sprintf "%.6f" e.time);
       ("level", Json.string (level_to_string e.level));
       ("scope", Json.string e.scope);
       ("msg", Json.string e.message);
     ]
    @ List.map (fun (k, v) -> (k, value_to_json v)) e.fields)

let value_to_string = function
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s

let event_to_string e =
  Printf.sprintf "%-5s %s: %s%s"
    (String.uppercase_ascii (level_to_string e.level))
    e.scope e.message
    (String.concat ""
       (List.map (fun (k, v) -> Printf.sprintf " %s=%s" k (value_to_string v)) e.fields))

type sink =
  | Null
  | Stderr
  | Channel of out_channel

(* Internally a file sink keeps its path and byte budget so the writer
   can roll it over; the public [sink] type stays channel-shaped. *)
type isink =
  | INull
  | IStderr
  | IChannel of out_channel
  | IFile of {
      path : string;
      max_bytes : int;
      mutable oc : out_channel;
      mutable written : int;
    }

(* The threshold is read on the hot path without the mutex: a stale
   read drops or keeps a borderline event, never corrupts anything. *)
let threshold_ref = Atomic.make (level_index Info)
let sink_mutex = Mutex.create ()
let sink_ref = ref INull

let set_isink s =
  Mutex.lock sink_mutex;
  sink_ref := s;
  Mutex.unlock sink_mutex

let set_sink = function
  | Null -> set_isink INull
  | Stderr -> set_isink IStderr
  | Channel oc -> set_isink (IChannel oc)

let open_append path = open_out_gen [ Open_append; Open_creat ] 0o644 path

let to_file ?max_bytes path =
  match max_bytes with
  | None -> set_isink (IChannel (open_append path))
  | Some max_bytes ->
      if max_bytes <= 0 then invalid_arg "Log.to_file: max_bytes must be > 0";
      let oc = open_append path in
      let written =
        match (Unix.fstat (Unix.descr_of_out_channel oc)).Unix.st_size with
        | n -> n
        | exception Unix.Unix_error _ -> 0
      in
      set_isink (IFile { path; max_bytes; oc; written })

let set_threshold l = Atomic.set threshold_ref (level_index l)

let threshold () =
  match Atomic.get threshold_ref with
  | 0 -> Debug
  | 1 -> Info
  | 2 -> Warn
  | _ -> Error

let enabled l = level_index l >= Atomic.get threshold_ref

let write_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let write_sink e =
  Mutex.lock sink_mutex;
  (match !sink_ref with
  | INull -> ()
  | IStderr -> write_line stderr (event_to_json e)
  | IChannel oc -> write_line oc (event_to_json e)
  | IFile f ->
      let line = event_to_json e in
      let len = String.length line + 1 in
      (* Roll over before the write that would burst the budget: one
         [.1] generation, so disk use is bounded by ~2x max_bytes. An
         event larger than the whole budget still goes out whole. *)
      if f.written > 0 && f.written + len > f.max_bytes then begin
        (try close_out f.oc with Sys_error _ -> ());
        (try Sys.rename f.path (f.path ^ ".1") with Sys_error _ -> ());
        f.oc <- open_out_gen [ Open_trunc; Open_creat; Open_wronly ] 0o644 f.path;
        f.written <- 0
      end;
      write_line f.oc line;
      f.written <- f.written + len);
  Mutex.unlock sink_mutex

let emit ?ring ?(fields = []) level ~scope message =
  if enabled level then begin
    let e = { time = Unix.gettimeofday (); level; scope; message; fields } in
    (match ring with Some r -> Ring.push r e | None -> ());
    write_sink e
  end
