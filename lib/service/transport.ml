module Trace_io = Runtime.Trace_io

type event = Adprom.Sessions.tagged = {
  session : int;
  event : Runtime.Collector.event;
}

type query = { q_session : int; rows : int; sql : string }

type item = Call of event | Query of query

let item_session = function
  | Call ev -> ev.session
  | Query q -> q.q_session

module type S = sig
  val id : string

  type enc
  type dec

  val encoder : unit -> enc
  val decoder : unit -> dec
  val encode : enc -> Buffer.t -> item -> unit
  val flush : enc -> Buffer.t -> unit

  val fold :
    dec ->
    ?pos:int ->
    ?len:int ->
    string ->
    init:'a ->
    f:('a -> item -> 'a) ->
    ('a, string) result

  val finish : dec -> (item list, string) result
end

type wire = Line | Binary

let max_item_bytes = 1 lsl 24

let wire_to_string = function Line -> "text" | Binary -> "binary"

let encode_all (module T : S) items =
  let enc = T.encoder () in
  let buf = Buffer.create (Array.length items * 40) in
  Array.iter (T.encode enc buf) items;
  T.flush enc buf;
  Buffer.contents buf

let decode_all (module T : S) text =
  let dec = T.decoder () in
  match T.fold dec text ~init:[] ~f:(fun acc it -> it :: acc) with
  | Error e -> Error e
  | Ok rev -> (
      match T.finish dec with
      | Error e -> Error e
      | Ok rest -> Ok (Array.of_list (List.rev_append rev rest)))

module Text = struct
  let id = "text"

  let encode_event { session; event = e } =
    Printf.sprintf "%d\t%s\t%d\t%s" session e.Runtime.Collector.caller
      e.Runtime.Collector.block
      (Trace_io.encode_symbol e.Runtime.Collector.symbol)

  let encode_query { q_session; rows; sql } =
    Printf.sprintf "q\t%d\t%d\t%s" q_session rows sql

  let encode_line = function
    | Call ev -> encode_event ev
    | Query q -> encode_query q

  let is_query_line line =
    String.length line >= 2 && line.[0] = 'q' && line.[1] = '\t'

  let parse_query_line line =
    (* q <TAB> session <TAB> rows <TAB> sql; the sql may itself contain
       tabs, so only the first three cuts split. *)
    match String.split_on_char '\t' line with
    | "q" :: sid :: rows :: sql_rest when sql_rest <> [] -> (
        let sql = String.concat "\t" sql_rest in
        match (int_of_string_opt sid, int_of_string_opt rows) with
        | Some q_session, _ when q_session < 0 ->
            Error (Printf.sprintf "negative session id %d" q_session)
        | _, Some rows when rows < 0 ->
            (* a corrupt cardinality would silently skew the qsig
               result-cardinality bands; reject it at the door *)
            Error (Printf.sprintf "negative row count %d" rows)
        | Some q_session, Some rows -> Ok { q_session; rows; sql }
        | None, _ -> Error (Printf.sprintf "bad session id %S" sid)
        | _, None -> Error (Printf.sprintf "bad row count %S" rows))
    | _ -> Error "expected q<TAB>session<TAB>rows<TAB>sql"

  let parse_event_line ?cache line =
    match String.index_opt line '\t' with
    | None ->
        Error "expected 4 tab-separated fields (session, caller, block, symbol)"
    | Some cut -> (
        let sid = String.sub line 0 cut in
        let rest = String.sub line (cut + 1) (String.length line - cut - 1) in
        match int_of_string_opt sid with
        | None -> Error (Printf.sprintf "bad session id %S" sid)
        | Some session when session < 0 ->
            Error (Printf.sprintf "negative session id %d" session)
        | Some session -> (
            match Trace_io.parse_event ?cache rest with
            | Ok event -> Ok { session; event }
            | Error e -> Error e))

  let parse_item ?cache line =
    if is_query_line line then
      match parse_query_line line with
      | Ok q -> Ok (Query q)
      | Error e -> Error e
    else
      match parse_event_line ?cache line with
      | Ok ev -> Ok (Call ev)
      | Error e -> Error e

  type enc = unit

  type dec = {
    pending : Buffer.t;  (* a partial line split across feeds *)
    mutable lineno : int;
    mutable dead : string option;
    cache : Runtime.Collector.Cache.t;  (* repeated events decode to one record *)
  }

  let encoder () = ()

  let decoder () =
    { pending = Buffer.create 80; lineno = 1; dead = None;
      cache = Runtime.Collector.Cache.create () }
  let pending_bytes dec = Buffer.length dec.pending

  let encode () buf it =
    Buffer.add_string buf (encode_line it);
    Buffer.add_char buf '\n'

  let flush () _ = () (* lines go straight to the buffer *)

  let chomp line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

  (* One complete line: blank lines and # comments are skipped but still
     advance the line counter (kept by the caller). *)
  let process_line dec line acc ~f =
    let line = chomp line in
    match String.trim line with
    | "" -> Ok acc
    | t when t.[0] = '#' -> Ok acc
    | _ -> (
        match parse_item ~cache:dec.cache line with
        | Ok it -> Ok (f acc it)
        | Error e ->
            let msg = Printf.sprintf "line %d: %s" dec.lineno e in
            dec.dead <- Some msg;
            Error msg)

  (* A line longer than [max_item_bytes] poisons the decoder before its
     bytes are buffered: a newline-free peer cannot grow [pending]
     without bound. *)
  let too_long dec =
    let msg =
      Printf.sprintf "line %d: longer than %d bytes" dec.lineno max_item_bytes
    in
    Buffer.reset dec.pending;
    dec.dead <- Some msg;
    Error msg

  let fold dec ?(pos = 0) ?len s ~init ~f =
    match dec.dead with
    | Some e -> Error e
    | None -> (
        let len = match len with Some l -> l | None -> String.length s - pos in
        let stop = pos + len in
        let rec go acc i =
          if i >= stop then Ok acc
          else
            (* [j]: end of this line's bytes in the chunk ([stop] when the
               line continues in a later chunk) *)
            let j =
              match String.index_from_opt s i '\n' with
              | Some j when j < stop -> j
              | _ -> stop
            in
            if Buffer.length dec.pending + (j - i) > max_item_bytes then too_long dec
            else if j = stop then begin
              Buffer.add_substring dec.pending s i (stop - i);
              Ok acc
            end
            else
              let line =
                if Buffer.length dec.pending = 0 then String.sub s i (j - i)
                else begin
                  Buffer.add_substring dec.pending s i (j - i);
                  let l = Buffer.contents dec.pending in
                  (* reset: a long line must not pin its size *)
                  Buffer.reset dec.pending;
                  l
                end
              in
              match process_line dec line acc ~f with
              | Error e -> Error e
              | Ok acc ->
                  dec.lineno <- dec.lineno + 1;
                  go acc (j + 1)
        in
        go init pos)

  let finish dec =
    match dec.dead with
    | Some e -> Error e
    | None ->
        if Buffer.length dec.pending = 0 then Ok []
        else begin
          let line = Buffer.contents dec.pending in
          Buffer.clear dec.pending;
          match process_line dec line [] ~f:(fun acc it -> it :: acc) with
          | Error e -> Error e
          | Ok acc -> Ok (List.rev acc)
        end
end
