(* Items between two [Ack] frames on a binary connection. *)
let ack_interval = 4096

let bind ?(backlog = 16) ?(host = "127.0.0.1") port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt fd SO_REUSEADDR true;
  Unix.bind fd (ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen fd backlog;
  (fd, match Unix.getsockname fd with ADDR_INET (_, p) -> p | _ -> port)

(* --- plain-HTTP exposition ---------------------------------------- *)

(* The same port speaks three wires; HTTP is the one whose first bytes
   are a method name. Returns [None] while the buffered prefix could
   still become one ("GE" might be "GET /metrics" — wait for bytes). *)
let http_method_prefix s =
  let is m = String.starts_with ~prefix:m s and could m = String.starts_with ~prefix:s m in
  if is "GET " then Some `Get
  else if is "HEAD " then Some `Head
  else if could "GET " || could "HEAD " then None
  else Some `No

let http_response ?(content_type = "text/plain; version=0.0.4; charset=utf-8")
    ~head_only status body =
  let reason =
    match status with
    | 200 -> "OK" | 400 -> "Bad Request" | 404 -> "Not Found" | 503 -> "Service Unavailable"
    | _ -> "Error"
  in
  Printf.sprintf
    "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status reason content_type (String.length body)
    (if head_only then "" else body)

(* "/incidents?n=25" -> ("/incidents", Some "25") *)
let split_query target =
  match String.index_opt target '?' with
  | None -> (target, None)
  | Some i ->
      let path = String.sub target 0 i in
      let q = String.sub target (i + 1) (String.length target - i - 1) in
      let v =
        List.find_map
          (fun kv ->
            match String.index_opt kv '=' with
            | Some j when String.sub kv 0 j = "n" ->
                Some (String.sub kv (j + 1) (String.length kv - j - 1))
            | _ -> None)
          (String.split_on_char '&' q)
      in
      (path, v)

(* the last [n] elements of [l]: every bounded tail a node ships *)
let newest n l =
  let len = List.length l in
  if len <= n then l else List.filteri (fun i _ -> i >= len - n) l

(* an incident as frames carry it: (session, rendering) *)
let rendered (i : Alerts.incident) =
  (i.Alerts.session, Alerts.source_to_string i.Alerts.source)

let incidents_json ~node ~limit alerts =
  let module J = Adprom_obs.Json in
  let all = Alerts.incidents alerts in
  let total = List.length all in
  let tail = newest limit all in
  let render (i : Alerts.incident) =
    J.obj
      [
        ("seq", string_of_int i.Alerts.seq);
        ("time", Printf.sprintf "%.6f" i.Alerts.time);
        ("session", string_of_int i.Alerts.session);
        ( "axis",
          J.string (Alerts.axis_to_string (Alerts.axis_of_source i.Alerts.source))
        );
        ("text", J.string (Alerts.source_to_string i.Alerts.source));
      ]
  in
  J.obj
    [
      ("node", J.string node);
      ("total", string_of_int total);
      ("incidents", "[" ^ String.concat "," (List.map render tail) ^ "]");
    ]

(* --- one connection, without its socket ---------------------------- *)

module Conn = struct
  let max_owed = 1 lsl 20

  type state = Open | Closing | Bye

  type node = {
    name : string;
    daemon : Daemon.t;
    t0 : int64;  (* monotonic ns *)
    c_frames : Metrics.counter;
    c_bytes : Metrics.counter;
    c_decode_err : Metrics.counter;
    c_http : Metrics.counter;
  }

  let node ~name daemon =
    let counter = Metrics.counter (Daemon.metrics daemon) in
    { name; daemon; t0 = Adprom_obs.Clock.monotonic_ns ();
      c_frames = counter "adprom_wire_frames_total";
      c_bytes = counter "adprom_wire_bytes_total";
      c_decode_err = counter "adprom_wire_decode_errors_total";
      c_http = counter "adprom_http_requests_total" }

  type codec =
    | Undecided of Buffer.t  (* not enough bytes to tell the wires apart *)
    | Bin of Frame.Decoder.t * Frame.Encoder.t
    | Txt of Transport.Text.dec
    | Http of Buffer.t  (* request bytes until the blank line *)

  type t = {
    node : node;
    mutable codec : codec;
    mutable state : state;
    mutable ingested : int;
    mutable acked : int;
    held : Buffer.t;  (* input a pause left unread; empty unless over the cap *)
    staged : Buffer.t;  (* replies not yet moved to [out] *)
    mutable out : Bytes.t;  (* replies being written, from [sent] on *)
    mutable sent : int;
  }

  let create node =
    { node; codec = Undecided (Buffer.create 8); state = Open; ingested = 0; acked = 0;
      held = Buffer.create 16; staged = Buffer.create 64; out = Bytes.empty; sent = 0 }

  let state c = c.state
  let owed c = Bytes.length c.out - c.sent + Buffer.length c.staged
  let readable c = c.state = Open && owed c <= max_owed

  let ingest c item =
    ignore (Daemon.ingest_item c.node.daemon item);
    c.ingested <- c.ingested + 1

  let reply c enc frame =
    Frame.Encoder.add enc c.staged frame;
    Frame.Encoder.flush enc c.staged

  (* undecodable or out-of-place input: counted, and the connection
     closes once the replies it owes are out *)
  let refuse c =
    Metrics.incr c.node.c_decode_err;
    c.state <- Closing

  let wall_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)
  let uptime n = Adprom_obs.Clock.elapsed_s n.t0

  (* one snapshot per answer: the status shipped or served is judged
     from the very numbers shipped with it *)
  let health n =
    let s = Metrics.snapshot (Daemon.metrics n.daemon) in
    (s, Health.evaluate ~queue_capacity:(Daemon.queue_capacity n.daemon) s)

  let on_frame c dec enc () (f : Frame.frame) =
    let n = c.node in
    Metrics.incr n.c_frames;
    (match f with
    | Frame.Hello _ ->
        let sample = Some (Adprom_obs.Clock.monotonic_ns (), wall_ns ()) in
        reply c enc (Frame.Hello { peer = n.name; sample })
    | Frame.Call ev ->
        ignore (Daemon.ingest n.daemon ev);
        c.ingested <- c.ingested + 1
    | Frame.Query q ->
        ignore (Daemon.ingest_query n.daemon q);
        c.ingested <- c.ingested + 1
    | Frame.Bye -> c.state <- Bye
    | Frame.Clock_probe { seq } ->
        reply c enc
          (Frame.Clock_reply
             { seq; mono_ns = Adprom_obs.Clock.monotonic_ns (); wall_ns = wall_ns () })
    | Frame.Trace_mark { trace_id; send_mono_ns; offset_ns } ->
        (* place the router's send instant on this node's clock and
           materialize the router→node handoff as a local span; the
           mark only arrives when the router is tracing, so the node
           needs no switch of its own *)
        let start_ns = Int64.add send_mono_ns offset_ns in
        let now = Adprom_obs.Clock.monotonic_ns () in
        let dur_ns = if Int64.compare now start_ns > 0 then Int64.sub now start_ns else 0L in
        Adprom_obs.Trace.record_span ~trace_id ~name:"wire.batch" ~start_ns ~dur_ns ()
    | Frame.Health_req ->
        let s, r = health n in
        let h_incidents = List.map rendered (newest 32 (Alerts.incidents (Daemon.alerts n.daemon))) in
        reply c enc
          (Frame.Health_resp
             { Frame.h_node = n.name; h_status = r.Health.status; h_snapshot = s; h_incidents;
               h_uptime_s = uptime n })
    | Frame.Spans_req ->
        (* keep the frame far below [max_payload] whatever the ring holds *)
        reply c enc (Frame.Spans_resp (newest 10_000 (Adprom_obs.Trace.spans ())))
    | Frame.Ack _ | Frame.Summary _ | Frame.Clock_reply _ | Frame.Health_resp _
    | Frame.Spans_resp _ ->
        (* replies have no business arriving at a server *)
        refuse c);
    (* past the cap, the rest of the input waits until the peer reads *)
    if c.state <> Open || owed c > max_owed then Frame.Decoder.pause dec

  let respond c ~head_only status ?content_type body =
    Metrics.incr c.node.c_http;
    Buffer.add_string c.staged (http_response ~head_only status ?content_type body);
    (* one request per connection: the three endpoints are scrape
       targets, and closing keeps the connection free of header-level
       keep-alive state *)
    c.state <- Closing

  let serve_http c meth target =
    let n = c.node in
    let head_only = meth = "HEAD" in
    let path, n_param = split_query target in
    match path with
    | "/metrics" -> respond c ~head_only 200 (Metrics.dump (Daemon.metrics n.daemon))
    | "/healthz" ->
        let _, r = health n in
        let status = if r.Health.status = Health.Unhealthy then 503 else 200 in
        respond c ~head_only status ~content_type:"application/json"
          (Health.report_to_json ~node:n.name ~uptime_s:(uptime n) r ^ "\n")
    | "/incidents" -> (
        match Option.fold ~none:(Some 20) ~some:int_of_string_opt n_param with
        | Some limit when limit >= 0 ->
            respond c ~head_only 200 ~content_type:"application/json"
              (incidents_json ~node:n.name ~limit (Daemon.alerts n.daemon) ^ "\n")
        | _ -> respond c ~head_only 400 "bad n parameter\n")
    | _ -> respond c ~head_only 404 "not found\n"

  let try_http c hb =
    let s = Buffer.contents hb in
    (* the head ends at a blank line: "\n\n", or "\n\r\n" (the tail
       of "\r\n\r\n") *)
    let rec blank_line i =
      match String.index_from_opt s i '\n' with
      | None -> false
      | Some i ->
          let at j ch = j < String.length s && s.[j] = ch in
          at (i + 1) '\n' || (at (i + 1) '\r' && at (i + 2) '\n') || blank_line (i + 1)
    in
    if Buffer.length hb > 8192 then respond c ~head_only:false 400 "request head too large\n"
    else if blank_line 0 then
      (* the request line, its "\r" trimmed with the other blanks *)
      match String.split_on_char ' ' (String.trim (List.hd (String.split_on_char '\n' s))) with
      | meth :: target :: _ -> serve_http c meth target
      | _ -> respond c ~head_only:false 400 "bad request line\n"

  let rec decode c s pos len =
    match c.codec with
    | Bin (dec, enc) -> (
        match Frame.Decoder.feed_fold dec ~pos ~len s ~init:() ~f:(on_frame c dec enc) with
        | Error _ -> refuse c
        | Ok ((), stop) when stop < pos + len ->
            if c.state = Open then Buffer.add_substring c.held s stop (pos + len - stop)
        | Ok ((), _) ->
            if c.state = Open && owed c <= max_owed && c.ingested - c.acked >= ack_interval
            then begin
              reply c enc (Frame.Ack { count = c.ingested });
              c.acked <- c.ingested
            end)
    | Txt dec ->
        Result.iter_error (fun _ -> refuse c)
          (Transport.Text.fold dec ~pos ~len s ~init:() ~f:(fun () it -> ingest c it))
    | Http hb ->
        Buffer.add_substring hb s pos len;
        try_http c hb
    | Undecided b when Buffer.length b + len < 2 -> Buffer.add_substring b s pos len
    | Undecided b -> (
        Buffer.add_substring b s pos len;
        let buffered = Buffer.contents b in
        let switch codec =
          c.codec <- codec;
          decode c buffered 0 (String.length buffered)
        in
        match (Frame.detect buffered, http_method_prefix buffered) with
        | Transport.Binary, _ -> switch (Bin (Frame.Decoder.create (), Frame.Encoder.create ()))
        | Transport.Line, None -> () (* "GET" so far — could still be either *)
        | Transport.Line, Some `No -> switch (Txt (Transport.Text.decoder ()))
        | Transport.Line, Some (`Get | `Head) -> switch (Http (Buffer.create 256)))

  let feed c ?(pos = 0) ?len s =
    let len = match len with Some l -> l | None -> String.length s - pos in
    Metrics.incr ~by:len c.node.c_bytes;
    if c.state = Open then
      if Buffer.length c.held > 0 then Buffer.add_substring c.held s pos len
      else decode c s pos len

  let rec drain c write =
    if c.sent = Bytes.length c.out && Buffer.length c.staged > 0 then begin
      c.out <- Buffer.to_bytes c.staged;
      c.sent <- 0;
      Buffer.reset c.staged
    end;
    let len = Bytes.length c.out - c.sent in
    if len > 0 then begin
      let n = write c.out c.sent len in
      c.sent <- c.sent + n;
      if Buffer.length c.held > 0 && owed c <= max_owed then begin
        let s = Buffer.contents c.held in
        Buffer.reset c.held;
        decode c s 0 (String.length s)
      end;
      if n = len then drain c write
    end

  let eof c =
    if c.state = Open then begin
      let counted r = Result.iter_error (fun _ -> Metrics.incr c.node.c_decode_err) r in
      (match c.codec with
      | Txt dec -> counted (Result.map (List.iter (ingest c)) (Transport.Text.finish dec))
      | Bin (dec, _) -> counted (Frame.Decoder.finish dec)
      | Http _ -> () (* hung up before finishing the request head *)
      | Undecided b ->
          (* a text stream shorter than the two detect bytes *)
          if Buffer.length b > 0 then
            counted
              (Result.map (Array.iter (ingest c))
                 (Transport.decode_all (module Transport.Text) (Buffer.contents b))));
      c.state <- Closing
    end

  let summarize c summary =
    match (c.state, c.codec) with
    | Bye, Bin (_, enc) ->
        let n = c.node and alerts = Daemon.alerts c.node.daemon in
        let fused (r : Daemon.session_report) =
          (r.Daemon.session, Alerts.fused_axes alerts ~session:r.Daemon.session)
        in
        reply c enc
          (Frame.Summary
             { Frame.node = n.name; summary; incidents = List.map rendered (Alerts.incidents alerts);
               fused = List.map fused summary.Daemon.sessions })
    | _ -> invalid_arg "Server.Conn.summarize: no Bye on this connection"
end

(* --- the loop: descriptors, accept and select ---------------------- *)

type sock = { fd : Unix.file_descr; conn : Conn.t; mutable broken : bool }

let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Write what [s] owes until the peer's buffer is full: the one place
   bytes leave the node. A peer that hung up breaks the connection. *)
let flush s =
  if not s.broken then
    try Conn.drain s.conn (Unix.write s.fd) with
    | Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | Unix.Unix_error _ -> s.broken <- true

(* [select] refuses a whole call with EINVAL when one descriptor is
   past FD_SETSIZE, so probe each new one alone *)
let selectable fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | _ -> true
  | exception Unix.Unix_error (EINVAL, _, _) -> false

let serve ~socket ?(name = "node") ?shards ?queue_capacity ?keep_verdicts
    ?metrics ?alerts ?vet_against ?vet_policy ?static_gate ?qsig_mode
    ?qsig_profile ?qsig_static_gate ?leakage_policy profile =
  (* a reply to a client that already hung up must raise EPIPE (one
     broken connection), not deliver a process-killing SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let daemon =
    Daemon.create ?shards ?queue_capacity ?keep_verdicts ~metrics ?alerts
      ?vet_against ?vet_policy ?static_gate ?qsig_mode ?qsig_profile
      ?qsig_static_gate ?leakage_policy profile
  in
  let node = Conn.node ~name daemon in
  let c_conns = Metrics.counter metrics "adprom_wire_connections_total" in
  let c_refused = Metrics.counter metrics "adprom_wire_connections_refused_total" in
  let t0 = Adprom_obs.Clock.monotonic_ns () in
  let conns = ref [] in
  let chunk = Bytes.create 65536 in
  Unix.set_nonblock socket;
  let accept () =
    match Unix.accept ~cloexec:true socket with
    | fd, _ when selectable fd ->
        Unix.set_nonblock fd;
        Metrics.incr c_conns;
        conns := { fd; conn = Conn.create node; broken = false } :: !conns
    | fd, _ ->
        close fd;
        Metrics.incr c_refused
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> Metrics.incr c_refused
  in
  let receive s =
    (match Unix.read s.fd chunk 0 (Bytes.length chunk) with
    | 0 -> Conn.eof s.conn
    | n -> Conn.feed s.conn ~len:n (Bytes.unsafe_to_string chunk)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error (ECONNRESET, _, _) ->
        Conn.eof s.conn;
        s.broken <- true
    | exception Unix.Unix_error _ -> s.broken <- true);
    flush s
  in
  let rec loop () =
    let fds pred = List.filter_map (fun s -> if pred s.conn then Some s.fd else None) !conns in
    (match Unix.select (socket :: fds Conn.readable) (fds (fun c -> Conn.owed c > 0)) [] 1.0 with
    | readable, writable, _ ->
        List.iter (fun s -> if List.mem s.fd writable then flush s) !conns;
        List.iter (fun s -> if List.mem s.fd readable then receive s) !conns;
        if List.mem socket readable then accept ()
    | exception Unix.Unix_error (EINTR, _, _) -> ());
    match List.find_opt (fun s -> Conn.state s.conn = Conn.Bye) !conns with
    | Some s -> s
    | None ->
        let gone, live =
          List.partition
            (fun s -> s.broken || (Conn.state s.conn = Conn.Closing && Conn.owed s.conn = 0))
            !conns
        in
        List.iter (fun s -> close s.fd) gone;
        conns := live;
        loop ()
  in
  let bye = loop () in
  (* everything is ingested: replaying nothing drains the daemon *)
  let outcome = { (Replay.run daemon [||]) with seconds = Adprom_obs.Clock.elapsed_s t0 } in
  Conn.summarize bye.conn outcome.Replay.summary;
  (* the router is waiting for its summary: the one write worth waiting for *)
  flush bye;
  while (not bye.broken) && Conn.owed bye.conn > 0 do
    (try ignore (Unix.select [] [ bye.fd ] [] (-1.0))
     with Unix.Unix_error (EINTR, _, _) -> ());
    flush bye
  done;
  List.iter (fun s -> close s.fd) !conns;
  outcome
