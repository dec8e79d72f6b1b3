let ack_interval = 4096

let bind ?(backlog = 16) ?(host = "127.0.0.1") port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt fd SO_REUSEADDR true;
  Unix.bind fd (ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen fd backlog;
  let port =
    match Unix.getsockname fd with
    | ADDR_INET (_, p) -> p
    | _ -> port
  in
  (fd, port)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
          ignore (Unix.select [] [fd] [] (-1.0));
          go off
  in
  go 0

type codec_state =
  | Undecided of Buffer.t  (* not enough bytes to tell the wires apart *)
  | Bin of Frame.Decoder.t * Frame.Encoder.t
  | Txt of Transport.Text.dec
  | Http of Buffer.t  (* request bytes until the blank line *)

type conn = {
  fd : Unix.file_descr;
  mutable codec : codec_state;
  mutable ingested : int;
  mutable acked : int;
}

(* --- plain-HTTP exposition ---------------------------------------- *)

(* The same port speaks three wires; HTTP is the one whose first bytes
   are a method name. Returns [None] while the buffered prefix could
   still become one ("GE" might be "GET /metrics" — wait for bytes). *)
let http_method_prefix s =
  let starts m =
    let n = min (String.length s) (String.length m) in
    String.sub s 0 n = String.sub m 0 n
  in
  if String.length s >= 4 && String.sub s 0 4 = "GET " then Some `Get
  else if String.length s >= 5 && String.sub s 0 5 = "HEAD " then Some `Head
  else if starts "GET " || starts "HEAD " then None
  else Some `No

let http_response ?(content_type = "text/plain; version=0.0.4; charset=utf-8")
    ~head_only status body =
  let reason =
    match status with
    | 200 -> "OK"
    | 400 -> "Bad Request"
    | 404 -> "Not Found"
    | 503 -> "Service Unavailable"
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

let serve ~socket ?(name = "node") ?shards ?queue_capacity ?keep_verdicts
    ?metrics ?alerts ?vet_against ?vet_policy ?static_gate ?qsig_mode
    ?qsig_profile ?qsig_static_gate ?leakage_policy profile =
  (* a reply to a client that already hung up must raise EPIPE (handled
     per connection below), not deliver a process-killing SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let daemon =
    Daemon.create ?shards ?queue_capacity ?keep_verdicts ~metrics ?alerts
      ?vet_against ?vet_policy ?static_gate ?qsig_mode ?qsig_profile
      ?qsig_static_gate ?leakage_policy profile
  in
  let c_conns = Metrics.counter metrics "adprom_wire_connections_total" in
  let c_frames = Metrics.counter metrics "adprom_wire_frames_total" in
  let c_bytes = Metrics.counter metrics "adprom_wire_bytes_total" in
  let c_decode_err = Metrics.counter metrics "adprom_wire_decode_errors_total" in
  let c_http = Metrics.counter metrics "adprom_http_requests_total" in
  let t0 = Unix.gettimeofday () in
  let conns = ref [] in
  let stop = ref None in
  let chunk = Bytes.create 65536 in
  let close_conn c =
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    conns := List.filter (fun x -> x != c) !conns
  in
  let ingest_items c items =
    List.iter
      (fun it ->
        ignore (Daemon.ingest_item daemon it);
        c.ingested <- c.ingested + 1)
      items
  in
  let reply enc c frame =
    let out = Buffer.create 64 in
    Frame.Encoder.add enc out frame;
    Frame.Encoder.flush enc out;
    (* with SIGPIPE ignored, a hung-up client surfaces here as EPIPE:
       drop the connection, don't let the exception kill the loop *)
    try write_all c.fd (Buffer.contents out)
    with Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> close_conn c
  in
  let wall_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9) in
  (* one snapshot per answer: the status shipped or served is judged
     from the very numbers shipped with it *)
  let health () =
    let s = Metrics.snapshot metrics in
    (s, Health.evaluate ~queue_capacity:(Daemon.queue_capacity daemon) s)
  in
  let handle_frame c enc (f : Frame.frame) =
    (* [close_conn] mid-chunk must silence the chunk's remaining frames:
       the fd is closed, so a reply would raise EBADF past the loop *)
    if List.memq c !conns then begin
      Metrics.incr c_frames;
      match f with
      | Frame.Hello _ ->
          let sample = Some (Adprom_obs.Clock.monotonic_ns (), wall_ns ()) in
          reply enc c (Frame.Hello { peer = name; sample })
      | Frame.Call ev ->
          ignore (Daemon.ingest daemon ev);
          c.ingested <- c.ingested + 1
      | Frame.Query q ->
          ignore (Daemon.ingest_query daemon q);
          c.ingested <- c.ingested + 1
      | Frame.Bye -> stop := Some c
      | Frame.Clock_probe { seq } ->
          reply enc c
            (Frame.Clock_reply
               { seq;
                 mono_ns = Adprom_obs.Clock.monotonic_ns ();
                 wall_ns = wall_ns () })
      | Frame.Trace_mark { trace_id; send_mono_ns; offset_ns } ->
          (* place the router's send instant on this node's clock and
             materialize the router→node handoff as a local span; the
             mark only arrives when the router is tracing, so the node
             needs no switch of its own *)
          let start_ns = Int64.add send_mono_ns offset_ns in
          let now = Adprom_obs.Clock.monotonic_ns () in
          let dur_ns =
            if Int64.compare now start_ns > 0 then Int64.sub now start_ns
            else 0L
          in
          Adprom_obs.Trace.record_span ~trace_id ~name:"wire.batch" ~start_ns
            ~dur_ns ()
      | Frame.Health_req ->
          let s, r = health () in
          reply enc c
            (Frame.Health_resp
               { Frame.h_node = name;
                 h_status = r.Health.status;
                 h_snapshot = s;
                 h_incidents =
                   List.map rendered
                     (newest 32 (Alerts.incidents (Daemon.alerts daemon)));
                 h_uptime_s = Unix.gettimeofday () -. t0 })
      | Frame.Spans_req ->
          (* keep the frame far below [max_payload] whatever the ring holds *)
          reply enc c (Frame.Spans_resp (newest 10_000 (Adprom_obs.Trace.spans ())))
      | Frame.Ack _ | Frame.Summary _
      | Frame.Clock_reply _ | Frame.Health_resp _ | Frame.Spans_resp _ ->
          (* replies have no business arriving at a server *)
          Metrics.incr c_decode_err;
          close_conn c
    end
  in
  let respond_http c ~head_only status ?content_type body =
    Metrics.incr c_http;
    (try write_all c.fd (http_response ~head_only status ?content_type body)
     with Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> ());
    (* one request per connection: the three endpoints are scrape
       targets, and closing keeps the select loop free of header-level
       keep-alive state *)
    close_conn c
  in
  let serve_http c meth target =
    let head_only = meth = `Head in
    let path, n_param = split_query target in
    match path with
    | "/metrics" -> respond_http c ~head_only 200 (Metrics.dump metrics)
    | "/healthz" ->
        let _, r = health () in
        let status = if r.Health.status = Health.Unhealthy then 503 else 200 in
        respond_http c ~head_only status ~content_type:"application/json"
          (Health.report_to_json ~node:name
             ~uptime_s:(Unix.gettimeofday () -. t0)
             r
          ^ "\n")
    | "/incidents" ->
        let limit =
          match n_param with
          | None -> 20
          | Some s -> ( match int_of_string_opt s with
            | Some n when n >= 0 -> n
            | _ -> -1)
        in
        if limit < 0 then
          respond_http c ~head_only 400 "bad n parameter\n"
        else
          respond_http c ~head_only 200 ~content_type:"application/json"
            (incidents_json ~node:name ~limit (Daemon.alerts daemon) ^ "\n")
    | _ -> respond_http c ~head_only 404 "not found\n"
  in
  let try_http c hb =
    let s = Buffer.contents hb in
    let terminated =
      (* the head ends at a blank line: "\n\n", or "\n\r\n" (the tail
         of "\r\n\r\n") *)
      let n = String.length s in
      let rec find i =
        if i >= n then false
        else if
          s.[i] = '\n'
          && ((i + 1 < n && s.[i + 1] = '\n')
             || (i + 2 < n && s.[i + 1] = '\r' && s.[i + 2] = '\n'))
        then true
        else find (i + 1)
      in
      find 0
    in
    if Buffer.length hb > 8192 then respond_http c ~head_only:false 400 "request head too large\n"
    else if terminated then begin
      let line =
        match String.index_opt s '\n' with
        | Some i ->
            let l = String.sub s 0 i in
            if l <> "" && l.[String.length l - 1] = '\r' then
              String.sub l 0 (String.length l - 1)
            else l
        | None -> s
      in
      match String.split_on_char ' ' line with
      | meth :: target :: _ ->
          let m = if meth = "HEAD" then `Head else `Get in
          serve_http c m target
      | _ -> respond_http c ~head_only:false 400 "bad request line\n"
    end
  in
  let process c s =
    match c.codec with
    | Undecided _ | Http _ -> assert false
    | Bin (dec, enc) -> (
        match
          Frame.Decoder.feed_fold dec s ~init:() ~f:(fun () fr ->
              handle_frame c enc fr)
        with
        | Ok () ->
            if
              !stop = None
              && List.memq c !conns
              && c.ingested - c.acked >= ack_interval
            then begin
              reply enc c (Frame.Ack { count = c.ingested });
              c.acked <- c.ingested
            end
        | Error _ ->
            Metrics.incr c_decode_err;
            close_conn c)
    | Txt dec -> (
        match
          Transport.Text.fold dec s ~init:() ~f:(fun () it ->
              ignore (Daemon.ingest_item daemon it);
              c.ingested <- c.ingested + 1)
        with
        | Ok () -> ()
        | Error _ ->
            Metrics.incr c_decode_err;
            close_conn c)
  in
  let handle_chunk c s =
    match c.codec with
    | Undecided b -> (
        Buffer.add_string b s;
        if Buffer.length b >= 2 then begin
          let buffered = Buffer.contents b in
          match Frame.detect buffered with
          | Transport.Binary ->
              c.codec <- Bin (Frame.Decoder.create (), Frame.Encoder.create ());
              process c buffered
          | Transport.Line -> (
              match http_method_prefix buffered with
              | None -> () (* "GET" so far — could still be either *)
              | Some `No ->
                  c.codec <- Txt (Transport.Text.decoder ());
                  process c buffered
              | Some (`Get | `Head) ->
                  let hb = Buffer.create 256 in
                  Buffer.add_string hb buffered;
                  c.codec <- Http hb;
                  try_http c hb)
        end)
    | Http hb ->
        Buffer.add_string hb s;
        try_http c hb
    | Bin _ | Txt _ -> process c s
  in
  let handle_eof c =
    (match c.codec with
    | Txt dec -> (
        match Transport.Text.finish dec with
        | Ok items -> ingest_items c items
        | Error _ -> Metrics.incr c_decode_err)
    | Bin (dec, _) -> (
        match Frame.Decoder.finish dec with
        | Ok () -> ()
        | Error _ -> Metrics.incr c_decode_err)
    | Http _ -> () (* hung up before finishing the request head *)
    | Undecided b when Buffer.length b > 0 -> (
        (* a text stream shorter than the two detect bytes *)
        match Transport.decode_all (module Transport.Text) (Buffer.contents b) with
        | Ok items -> ingest_items c (Array.to_list items)
        | Error _ -> Metrics.incr c_decode_err)
    | Undecided _ -> ());
    close_conn c
  in
  let rec loop () =
    match !stop with
    | Some _ -> ()
    | None ->
        let fds = socket :: List.map (fun c -> c.fd) !conns in
        (match Unix.select fds [] [] 1.0 with
        | readable, _, _ ->
            List.iter
              (fun fd ->
                if fd = socket then begin
                  let cfd, _ = Unix.accept socket in
                  Metrics.incr c_conns;
                  conns :=
                    { fd = cfd;
                      codec = Undecided (Buffer.create 8);
                      ingested = 0;
                      acked = 0 }
                    :: !conns
                end
                else
                  match List.find_opt (fun c -> c.fd = fd) !conns with
                  | None -> ()
                  | Some c -> (
                      match Unix.read c.fd chunk 0 (Bytes.length chunk) with
                      | 0 -> handle_eof c
                      | n ->
                          Metrics.incr ~by:n c_bytes;
                          handle_chunk c (Bytes.sub_string chunk 0 n)
                      | exception Unix.Unix_error (ECONNRESET, _, _) ->
                          handle_eof c))
              readable
        | exception Unix.Unix_error (EINTR, _, _) -> ());
        loop ()
  in
  loop ();
  let summary =
    Adprom_obs.Trace.with_span "daemon.drain" (fun () -> Daemon.drain daemon)
  in
  let seconds = Unix.gettimeofday () -. t0 in
  let alerts = Daemon.alerts daemon in
  let node_summary =
    {
      Frame.node = name;
      summary;
      incidents = List.map rendered (Alerts.incidents alerts);
      fused =
        List.map
          (fun (r : Daemon.session_report) ->
            (r.Daemon.session, Alerts.fused_axes alerts ~session:r.Daemon.session))
          summary.Daemon.sessions;
    }
  in
  (match !stop with
  | Some c -> (
      (match c.codec with
      | Bin (_, enc) -> (
          try reply enc c (Frame.Summary node_summary)
          with Unix.Unix_error _ -> ())
      | Txt _ | Undecided _ | Http _ -> ());
      close_conn c)
  | None -> ());
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !conns;
  {
    Replay.summary;
    seconds;
    metrics;
    alerts;
    events_tail = Daemon.recent_events daemon;
  }
