(* FNV-1a over 64 bits, folded to a non-negative OCaml int. Hashtbl.hash
   would be simpler but is not guaranteed stable across versions or
   processes — and every router must place a session on the same node. *)
let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun ch ->
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code ch)))
          0x100000001b3L)
    s;
  (* FNV alone barely moves the high bits when only the last byte
     differs ("0" vs "1" — exactly the short keys session ids make), and
     the ring orders by the high bits; finish with splitmix64's
     avalanche so neighbouring ids scatter. *)
  let mix h =
    let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 30)) 0xbf58476d1ce4e5b9L in
    let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 27)) 0x94d049bb133111ebL in
    Int64.logxor h (Int64.shift_right_logical h 31)
  in
  Int64.to_int (Int64.shift_right_logical (mix !h) 1)

module Ring = struct
  type t = { points : (int * string) array; names : string list }

  let create ?(replicas = 64) names =
    if names = [] then invalid_arg "Cluster.Ring.create: no nodes";
    if replicas < 1 then invalid_arg "Cluster.Ring.create: replicas < 1";
    let points =
      List.concat_map
        (fun name ->
          List.init replicas (fun i ->
              (fnv1a (Printf.sprintf "%s#%d" name i), name)))
        names
      |> Array.of_list
    in
    Array.sort compare points;
    { points; names }

  let nodes t = t.names

  let node t session =
    let key = fnv1a (string_of_int session) in
    let n = Array.length t.points in
    (* first point with hash >= key, wrapping to 0 past the top *)
    let rec search lo hi =
      if lo >= hi then lo
      else begin
        let mid = (lo + hi) / 2 in
        if fst t.points.(mid) < key then search (mid + 1) hi else search lo mid
      end
    in
    let i = search 0 n in
    snd t.points.(if i = n then 0 else i)
end

type peer = { peer_name : string; host : string; port : int }

let peer_of_string s =
  let name, addr =
    match String.index_opt s '=' with
    | Some i ->
        (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> (s, s)
  in
  match String.rindex_opt addr ':' with
  | None ->
      Error (Printf.sprintf "bad node address %S (expected [name=]host:port)" s)
  | Some i -> (
      let host =
        match String.sub addr 0 i with "" -> "127.0.0.1" | h -> h
      in
      match int_of_string_opt (String.sub addr (i + 1) (String.length addr - i - 1)) with
      | Some p when p > 0 && p < 65536 -> Ok { peer_name = name; host; port = p }
      | _ -> Error (Printf.sprintf "bad port in node address %S" s))

(* the router's sockets block, and on a blocking socket [Unix.write]
   returns only once every byte is written *)
let write_all fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      match (Unix.gethostbyname host).Unix.h_addr_list with
      | [||] -> failwith (host ^ ": unknown host")
      | addrs -> addrs.(0)
      | exception Not_found -> failwith (host ^ ": unknown host"))

module Router = struct
  let flush_threshold = 32 * 1024

  type rpeer = {
    spec : peer;
    mutable fd : Unix.file_descr;
    mutable enc : Frame.Encoder.t;
    mutable dec : Frame.Decoder.t;
    mutable inbox : Frame.frame list;  (* decoded but unconsumed replies *)
    out : Buffer.t;
    mutable out_items : int;  (* items encoded in [out], not yet flushed *)
    mutable sent : int;
    mutable acked : int;
    mutable lost : int;
    mutable reconnects : int;
    mutable offset_ns : int64;  (* node_mono - router_mono estimate *)
    mutable probe_seq : int;
  }

  type t = {
    ring : Ring.t;
    peers : (string * rpeer) list;
    me : string;
    attempts : int;
    mutable closed : bool;
    chunk : Bytes.t;
  }

  exception Router_error of string

  let dial ~attempts spec =
    let rec go k =
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      match
        Unix.connect fd (ADDR_INET (resolve spec.host, spec.port))
      with
      | () -> fd
      | exception Unix.Unix_error ((ECONNREFUSED | ETIMEDOUT | EHOSTUNREACH | ENETUNREACH), _, _)
        when k + 1 < attempts ->
          close_fd fd;
          (* exponential backoff, capped at a second *)
          Unix.sleepf (Float.min 1.0 (0.05 *. Float.pow 2.0 (float_of_int k)));
          go (k + 1)
      | exception Unix.Unix_error (e, _, _) ->
          close_fd fd;
          raise
            (Router_error
               (Printf.sprintf "%s (%s:%d): %s" spec.peer_name spec.host
                  spec.port (Unix.error_message e)))
    in
    go 0

  (* One read from [p]'s node: Acks are taken at once, other frames join
     the inbox. [false] at EOF. *)
  let read_frames t p =
    match Unix.read p.fd t.chunk 0 (Bytes.length t.chunk) with
    | 0 -> false
    | n -> (
        match Frame.Decoder.feed p.dec ~len:n (Bytes.unsafe_to_string t.chunk) with
        | Error e ->
            raise (Router_error (p.spec.peer_name ^ ": " ^ Frame.error_to_string e))
        | Ok frames ->
            List.iter
              (function Frame.Ack { count } -> p.acked <- count | f -> p.inbox <- p.inbox @ [ f ])
              frames;
            true)
    | exception Unix.Unix_error (EINTR, _, _) -> true

  (* The first reply [pred] wants. *)
  let rec await t p ~what pred =
    match p.inbox with
    | [] ->
        if read_frames t p then await t p ~what pred
        else raise (Router_error (p.spec.peer_name ^ ": connection closed by node"))
    | f :: rest -> (
        p.inbox <- rest;
        match pred f with
        | Some v -> v
        | None ->
            raise
              (Router_error
                 (Printf.sprintf "%s: unexpected %s frame (awaiting %s)"
                    p.spec.peer_name (Frame.frame_name f) what)))

  (* The node samples its clock into the hello reply: dating the sample
     at the round trip's midpoint gives a first offset estimate, refined
     by {!clock_sync}'s min-RTT probes. *)
  let rec hello t p =
    let _rtt, offset_ns =
      probe t p
        (Frame.Hello { peer = t.me; sample = None })
        ~what:"a hello with a clock sample"
        (function
          | Frame.Hello { sample = Some (mono_ns, _); _ } -> Some mono_ns
          | _ -> None)
    in
    p.offset_ns <- offset_ns

  and reconnect t p =
    (* everything unflushed, plus everything flushed past the last Ack:
       an upper bound — the node may have scored some of it — which is
       the right direction for a "verdicts no longer comparable" flag *)
    p.lost <- p.lost + p.out_items + (p.sent - p.acked);
    Buffer.clear p.out;
    p.out_items <- 0;
    close_fd p.fd;
    p.fd <- dial ~attempts:t.attempts p.spec;
    (* a new connection is a new interned-string namespace *)
    p.enc <- Frame.Encoder.create ();
    p.dec <- Frame.Decoder.create ();
    p.inbox <- [];
    p.sent <- 0;
    p.acked <- 0;
    p.reconnects <- p.reconnects + 1;
    hello t p

  and flush t p =
    Frame.Encoder.flush p.enc p.out;
    if Buffer.length p.out > 0 then begin
      let items = p.out_items in
      (* Stamp the batch for cross-node tracing: the mark follows the
         batch's bytes on the same connection, so the node's [wire.batch]
         span runs from our send instant (mapped onto the node's clock
         via [offset_ns]) to the moment the whole batch was ingested. *)
      let mark =
        if items > 0 && Adprom_obs.Trace.enabled () then begin
          let trace_id = Adprom_obs.Trace.fresh_id () in
          let send_mono_ns = Adprom_obs.Clock.monotonic_ns () in
          Frame.Encoder.add p.enc p.out
            (Frame.Trace_mark
               { trace_id; send_mono_ns; offset_ns = p.offset_ns });
          Frame.Encoder.flush p.enc p.out;
          Some (trace_id, send_mono_ns)
        end
        else None
      in
      match write_all p.fd (Buffer.contents p.out) with
      | () ->
          p.sent <- p.sent + items;
          Buffer.clear p.out;
          p.out_items <- 0;
          (match mark with
          | Some (trace_id, send_mono_ns) ->
              Adprom_obs.Trace.record_span ~trace_id ~name:"route.batch"
                ~attrs:
                  [ ("peer", p.spec.peer_name);
                    ("items", string_of_int items) ]
                ~start_ns:send_mono_ns
                ~dur_ns:
                  (Int64.sub (Adprom_obs.Clock.monotonic_ns ()) send_mono_ns)
                ()
          | None -> ())
      | exception Unix.Unix_error ((EPIPE | ECONNRESET | ECONNREFUSED), _, _)
        ->
          reconnect t p
    end

  (* A control exchange whose reply carries the node's monotonic clock:
     returns the round trip and [node_mono - router_mono] dated at its
     midpoint. Buffered items go out before the clock starts. *)
  and probe t p frame ~what pred =
    flush t p;
    let t0 = Adprom_obs.Clock.monotonic_ns () in
    let mono_ns = request_reply t p frame ~what pred in
    let t1 = Adprom_obs.Clock.monotonic_ns () in
    (Int64.sub t1 t0, Int64.sub mono_ns (Int64.div (Int64.add t0 t1) 2L))

  (* Every control exchange: [frame] goes out behind the items already
     buffered for [p], then the reply [pred] accepts is awaited. *)
  and request_reply :
        'a. t -> rpeer -> Frame.frame -> what:string ->
        (Frame.frame -> 'a option) -> 'a =
   fun t p frame ~what pred ->
    request t p frame;
    await t p ~what pred

  and request t p frame =
    flush t p;
    let out = Buffer.create 16 in
    Frame.Encoder.add p.enc out frame;
    Frame.Encoder.flush p.enc out;
    write_all p.fd (Buffer.contents out)

  (* Opportunistically consume any Acks the node pushed while we were
     writing, so the socket buffer never fills with feedback. *)
  let rec drain_acks t p =
    match Unix.select [ p.fd ] [] [] 0.0 with
    | [], _, _ -> ()
    | _ -> if read_frames t p then drain_acks t p
    | exception Unix.Unix_error (EINTR, _, _) -> drain_acks t p

  let connect ?replicas ?(attempts = 10) ?(peer = "router") specs =
    (* a node that dies mid-stream must surface as EPIPE on the next
       write — the reconnect path — not as a process-killing SIGPIPE *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    match
      let names = List.map (fun s -> s.peer_name) specs in
      if List.length (List.sort_uniq compare names) <> List.length names then
        raise (Router_error "duplicate node names");
      let t =
        {
          ring = Ring.create ?replicas names;
          peers = [];
          me = peer;
          attempts;
          closed = false;
          chunk = Bytes.create 65536;
        }
      in
      (* register each fd as soon as it is open, so a later dial or
         handshake failure closes every earlier connection too *)
      let opened = ref [] in
      (try
         List.iter
           (fun spec ->
             let p =
               {
                 spec;
                 fd = dial ~attempts spec;
                 enc = Frame.Encoder.create ();
                 dec = Frame.Decoder.create ();
                 inbox = [];
                 out = Buffer.create flush_threshold;
                 out_items = 0;
                 sent = 0;
                 acked = 0;
                 lost = 0;
                 reconnects = 0;
                 offset_ns = 0L;
                 probe_seq = 0;
               }
             in
             opened := (spec.peer_name, p) :: !opened;
             hello t p)
           specs
       with e ->
         List.iter (fun (_, p) -> close_fd p.fd) !opened;
         raise e);
      { t with peers = List.rev !opened }
    with
    | t -> Ok t
    | exception Router_error e -> Error e
    | exception Invalid_argument e -> Error e

  let peer_of t item =
    List.assoc (Ring.node t.ring (Transport.item_session item)) t.peers

  (* Every public fleet operation: refused once the router is closed,
     and its failures become [Error]. [f] builds its own [Ok], so the
     per-item {!send} allocates nothing here. *)
  let guard t f x =
    if t.closed then Error "router already finished"
    else
      try f t x with
      | Router_error e -> Error e
      | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

  let send_item t item =
    let p = peer_of t item in
    Frame.Encoder.add p.enc p.out
      (match item with
      | Transport.Call ev -> Frame.Call ev
      | Transport.Query q -> Frame.Query q);
    p.out_items <- p.out_items + 1;
    if Buffer.length p.out >= flush_threshold then begin
      flush t p;
      drain_acks t p
    end

  let send t item = guard t (fun t item -> send_item t item; Ok ()) item
  let send_stream t items = guard t (fun t items -> Array.iter (send_item t) items; Ok ()) items

  let each_peer t f =
    guard t (fun t f -> Ok (List.map (fun (_, p) -> f p) t.peers)) f

  let flush_all t = Result.map ignore (each_peer t (flush t))

  let lost_items t =
    List.fold_left (fun acc (_, p) -> acc + p.lost) 0 t.peers

  (* ---- operations plane ------------------------------------------- *)

  let clock_sync ?(probes = 3) t =
    Result.map ignore
      (each_peer t (fun p ->
           (* the probe with the smallest round trip spent the least
              time queued anywhere, so dating its sample at the
              midpoint has the tightest error bound *)
           let best_rtt = ref Int64.max_int in
           for _ = 1 to probes do
             let seq = p.probe_seq in
             p.probe_seq <- seq + 1;
             let rtt, offset_ns =
               probe t p (Frame.Clock_probe { seq }) ~what:"clock-reply"
                 (function
                   | Frame.Clock_reply { seq = s; mono_ns; _ } when s = seq ->
                       Some mono_ns
                   | _ -> None)
             in
             if Int64.compare rtt !best_rtt < 0 then begin
               best_rtt := rtt;
               p.offset_ns <- offset_ns
             end
           done))

  let health t =
    each_peer t (fun p ->
        ( p.spec.peer_name,
          request_reply t p Frame.Health_req ~what:"health" (function
            | Frame.Health_resp h -> Some h
            | _ -> None) ))

  let spans t =
    each_peer t (fun p ->
        ( p.spec.peer_name,
          p.offset_ns,
          request_reply t p Frame.Spans_req ~what:"spans" (function
            | Frame.Spans_resp spans -> Some spans
            | _ -> None) ))

  let close t =
    (* drop the connections without [Bye]: the observation commands
       ([status], [top]) must not shut the fleet down on exit *)
    if not t.closed then begin
      t.closed <- true;
      List.iter (fun (_, p) -> close_fd p.fd) t.peers
    end

  (* the fleet's Prometheus text: every node's health snapshot, merged,
     with the help texts a node's own /metrics prints *)
  let metrics t =
    Result.map
      (fun nodes ->
        Metrics.render ~help:Daemon.metric_help
          (Metrics.merge_snapshots
             (List.map (fun (_, h) -> h.Frame.h_snapshot) nodes)))
      (health t)

  (* Every Bye goes out before any Summary is awaited, so the nodes
     drain in parallel. *)
  let finish t =
    guard t
      (fun t () ->
        t.closed <- true;
        Fun.protect
          ~finally:(fun () -> List.iter (fun (_, p) -> close_fd p.fd) t.peers)
          (fun () ->
            List.iter (fun (_, p) -> request t p Frame.Bye) t.peers;
            Ok
              (List.map
                 (fun (_, p) ->
                   await t p ~what:"summary" (function
                     | Frame.Summary s -> Some s
                     | _ -> None))
                 t.peers)))
      ()
end

let merge = function
  | [] -> invalid_arg "Cluster.merge: no summaries"
  | summaries ->
      let node =
        String.concat "+" (List.map (fun s -> s.Frame.node) summaries)
      in
      let sessions =
        List.concat_map
          (fun s -> s.Frame.summary.Daemon.sessions)
          summaries
        |> List.sort (fun (a : Daemon.session_report) b ->
               compare a.session b.session)
      in
      let shed =
        List.concat_map (fun s -> s.Frame.summary.Daemon.shed) summaries
        |> List.sort compare
      in
      let sum f =
        List.fold_left (fun acc s -> acc + f s.Frame.summary) 0 summaries
      in
      {
        Frame.node;
        summary =
          {
            Daemon.sessions;
            shed;
            events_offered = sum (fun s -> s.Daemon.events_offered);
            events_ingested = sum (fun s -> s.Daemon.events_ingested);
            events_dropped = sum (fun s -> s.Daemon.events_dropped);
          };
        incidents =
          List.concat_map (fun s -> s.Frame.incidents) summaries
          |> List.stable_sort (fun (a, _) (b, _) -> compare a b);
        fused =
          List.concat_map (fun s -> s.Frame.fused) summaries
          |> List.sort (fun (a, _) (b, _) -> compare a b);
      }

type local = { name : string; pid : int; port : int }

let spawn_local ~name f =
  let socket, port = Server.bind 0 in
  (* buffered output would be flushed twice, once per process *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 -> (
      match f socket with
      | () -> Unix._exit 0
      | exception e ->
          Printf.eprintf "adprom node %s: %s\n%!" name (Printexc.to_string e);
          Unix._exit 1)
  | pid ->
      Unix.close socket;
      { name; pid; port }

let wait_local l =
  match snd (Unix.waitpid [] l.pid) with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n ->
      failwith (Printf.sprintf "node %s exited with status %d" l.name n)
  | Unix.WSIGNALED s ->
      failwith (Printf.sprintf "node %s killed by signal %d" l.name s)
  | Unix.WSTOPPED s ->
      failwith (Printf.sprintf "node %s stopped by signal %d" l.name s)

(* Kills and reaps [l] unless it has been reaped already: waitpid
   refuses a reaped child with ECHILD, so the signal only ever goes to
   a child of this process that has not been waited for. *)
let stop_local l =
  let rec reap flags =
    match Unix.waitpid flags l.pid with
    | r -> Some r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap flags
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> None
  in
  match reap [ Unix.WNOHANG ] with
  | Some (0, _) ->
      (try Unix.kill l.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap [])
  | Some _ | None -> ()

let with_local names serve f =
  let nodes = ref [] in
  Fun.protect
    ~finally:(fun () -> List.iter stop_local !nodes)
    (fun () ->
      List.iter
        (fun name -> nodes := spawn_local ~name (serve name) :: !nodes)
        names;
      f (List.rev !nodes))
