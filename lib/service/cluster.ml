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
  type t = { points : (int * string) array }

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
    { points }

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
  | Some _ when name = "" -> Error (Printf.sprintf "empty node name in %S" s)
  | Some i -> (
      let host =
        match String.sub addr 0 i with "" -> "127.0.0.1" | h -> h
      in
      match int_of_string_opt (String.sub addr (i + 1) (String.length addr - i - 1)) with
      | Some p when p > 0 && p < 65536 -> Ok { peer_name = name; host; port = p }
      | _ -> Error (Printf.sprintf "bad port in node address %S" s))

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

module Router = struct
  let batch_bytes = 32 * 1024

  (* --- the core: the router's end of each node's connection, with no
     descriptor and no clock ------------------------------------------ *)

  (* One connection; a new one is a new interned-string namespace. *)
  type conn = {
    enc : Frame.Encoder.t;
    dec : Frame.Decoder.t;
    out : Server.Outbox.t;
    mutable out_items : int;  (* routed items no write has started on *)
    mutable sent : int;  (* the other items routed on it *)
    mutable acked : int;
    mutable asked : int;  (* replies the node owes *)
    mutable rehello : bool;  (* its first reply answers a redial's hello *)
    replies : Frame.frame Queue.t;
  }

  type rpeer = {
    name : string;
    hello : Frame.frame;  (* what opens each connection *)
    mutable c : conn;
    mutable lost : int;
    mutable reconnects : int;
    mutable offset_ns : int64;  (* node_mono - router_mono estimate *)
  }

  (* A control frame, behind everything routed so far. *)
  let stage c frame =
    Frame.Encoder.add c.enc (Server.Outbox.staged c.out) frame;
    Frame.Encoder.flush c.enc (Server.Outbox.staged c.out);
    match frame with Frame.Trace_mark _ -> () | _ -> c.asked <- c.asked + 1

  let connection ~rehello hello =
    let c =
      { enc = Frame.Encoder.create (); dec = Frame.Decoder.create ();
        out = Server.Outbox.create (2 * batch_bytes); out_items = 0; sent = 0; acked = 0;
        asked = 0; rehello; replies = Queue.create () }
    in
    stage c hello;
    c

  let route ring peers item =
    let p = List.assoc (Ring.node ring (Transport.item_session item)) peers in
    Frame.Encoder.add p.c.enc (Server.Outbox.staged p.c.out)
      (match item with Transport.Call ev -> Frame.Call ev | Transport.Query q -> Frame.Query q);
    p.c.out_items <- p.c.out_items + 1;
    p

  let owed c =
    Frame.Encoder.flush c.enc (Server.Outbox.staged c.out);
    Server.Outbox.owed c.out

  let drain c write =
    (* a write that starts on the staged bytes carries every item
       routed so far *)
    if owed c = Buffer.length (Server.Outbox.staged c.out) then begin
      c.sent <- c.sent + c.out_items;
      c.out_items <- 0
    end;
    ignore (Server.Outbox.drain c.out write)

  (* Bytes from the node. Acks are absorbed, and so is the answer to a
     redial's hello (a node's monotonic clock is its host's, so the
     offset estimate stands); any other frame must answer a request. *)
  let feed c buf len =
    let take f =
      match f with
      | Frame.Ack { count } -> c.acked <- count; true
      | _ when c.asked = 0 -> false
      | Frame.Hello _ when c.rehello -> c.asked <- c.asked - 1; c.rehello <- false; true
      | _ -> c.asked <- c.asked - 1; Queue.push f c.replies; true
    in
    match Frame.Decoder.feed c.dec ~len (Bytes.unsafe_to_string buf) with
    | Error e -> Error (Frame.error_to_string e)
    | Ok frames -> (
        match List.find_opt (fun f -> not (take f)) frames with
        | None -> Ok ()
        | Some f -> Error ("unsolicited " ^ Frame.frame_name f ^ " frame"))

  (* The connection broke. Everything routed on it and never acked is
     counted lost: an upper bound (the node may have scored some of it),
     the right direction for a "verdicts no longer comparable" flag. *)
  let hangup p =
    p.lost <- p.lost + p.c.out_items + (p.c.sent - p.c.acked);
    p.reconnects <- p.reconnects + 1;
    p.c <- connection ~rehello:true p.hello

  (* --- the shell: moving bytes, waiting, the fleet operations ------- *)

  exception Router_error of string

  let fail p fmt = Printf.ksprintf (fun s -> raise (Router_error (p.name ^ ": " ^ s))) fmt

  type link = {
    dial : string -> unit;
    close : string -> unit;
    select : string list -> string list -> string list * string list;
    read : string -> Bytes.t -> int -> int -> int;
    write : string -> Bytes.t -> int -> int -> int;
  }

  type t = {
    ring : Ring.t;
    peers : (string * rpeer) list;
    link : link;
    mutable closed : bool;
    chunk : Bytes.t;
  }

  let redial t p =
    hangup p;
    t.link.close p.name;
    t.link.dial p.name

  (* Wait until one of [ps] can move bytes, then write what each owes
     and read what each sends; a broken connection is redialed. *)
  let pump t ps =
    let names f = List.filter_map (fun p -> if f p then Some p.name else None) ps in
    let readable, writable = t.link.select (names (fun _ -> true)) (names (fun p -> owed p.c > 0)) in
    let transient = function Unix.EAGAIN | EWOULDBLOCK | EINTR -> true | _ -> false in
    List.iter
      (fun p ->
        let epoch = p.reconnects in
        (if List.mem p.name writable then
           try drain p.c (t.link.write p.name)
           with Unix.Unix_error (e, _, _) -> if not (transient e) then redial t p);
        if p.reconnects = epoch && List.mem p.name readable then
          match t.link.read p.name t.chunk 0 (Bytes.length t.chunk) with
          | 0 -> redial t p
          | n -> Result.iter_error (fail p "%s") (feed p.c t.chunk n)
          | exception Unix.Unix_error (e, _, _) -> if not (transient e) then redial t p)
      ps

  let rec wait t ps until =
    if not (until ()) then begin
      pump t ps;
      wait t ps until
    end

  (* The reply to the request staged on [p] while its connection was
     [epoch], which [pred] must accept. *)
  let reply t p epoch ~what pred =
    wait t [ p ] (fun () -> p.reconnects <> epoch || not (Queue.is_empty p.c.replies));
    if p.reconnects <> epoch then fail p "connection closed by node";
    let f = Queue.pop p.c.replies in
    match pred f with
    | Some v -> v
    | None -> fail p "unexpected %s frame (awaiting %s)" (Frame.frame_name f) what

  (* A request just staged on [p] whose reply carries the node's
     monotonic clock: the round trip, and [node_mono - router_mono]
     dated at its midpoint. *)
  let probe t p ~what pred =
    let t0 = Adprom_obs.Clock.monotonic_ns () in
    let mono_ns = reply t p p.reconnects ~what pred in
    let t1 = Adprom_obs.Clock.monotonic_ns () in
    (Int64.sub t1 t0, Int64.sub mono_ns (Int64.div (Int64.add t0 t1) 2L))

  (* Everything routed to [p] goes out now. Tracing stamps the batch:
     the mark follows its bytes on the same connection, so the node's
     [wire.batch] span runs from our send instant (mapped onto the
     node's clock via [offset_ns]) to the moment the whole batch was
     ingested. *)
  let flush t p =
    let items = p.c.out_items in
    let mark =
      if items > 0 && Adprom_obs.Trace.enabled () then begin
        let trace_id = Adprom_obs.Trace.fresh_id () in
        let send_mono_ns = Adprom_obs.Clock.monotonic_ns () in
        stage p.c (Frame.Trace_mark { trace_id; send_mono_ns; offset_ns = p.offset_ns });
        Some (trace_id, send_mono_ns)
      end
      else None
    in
    wait t [ p ] (fun () -> owed p.c = 0);
    Option.iter
      (fun (trace_id, send_mono_ns) ->
        Adprom_obs.Trace.record_span ~trace_id ~name:"route.batch"
          ~attrs:[ ("peer", p.name); ("items", string_of_int items) ]
          ~start_ns:send_mono_ns
          ~dur_ns:(Int64.sub (Adprom_obs.Clock.monotonic_ns ()) send_mono_ns)
          ())
      mark

  (* [frame] to every node behind its routed items, then each node's
     reply in connect order, which [pred] must accept. Every request is
     out before any reply is awaited, so the nodes answer in parallel;
     and a node is not read while others are written to, so none is read
     past its answer (a node may hang up after its [Summary]). *)
  let ask t frame ~what pred =
    List.map
      (fun (_, p) ->
        flush t p;
        stage p.c frame;
        let epoch = p.reconnects in
        wait t [ p ] (fun () -> owed p.c = 0);
        (p, epoch))
      t.peers
    |> List.map (fun (p, epoch) -> (p, reply t p epoch ~what pred))

  let close_all t = List.iter (fun (name, _) -> t.link.close name) t.peers

  let over ?replicas link names =
    match
      if List.length (List.sort_uniq compare names) <> List.length names then
        raise (Router_error "duplicate node names");
      let hello = Frame.Hello { peer = "router"; sample = None } in
      let make name =
        (name, { name; hello; c = connection ~rehello:false hello; lost = 0; reconnects = 0; offset_ns = 0L })
      in
      let t =
        { ring = Ring.create ?replicas names; peers = List.map make names; link; closed = false;
          chunk = Bytes.create 65536 }
      in
      (* the node samples its clock into the hello reply: dating the
         sample at the round trip's midpoint gives a first offset
         estimate, refined by {!clock_sync}'s min-RTT probes *)
      (try
         List.iter
           (fun (_, p) ->
             link.dial p.name;
             p.offset_ns <-
               snd
                 (probe t p ~what:"a hello with a clock sample" (function
                   | Frame.Hello { sample = Some (mono_ns, _); _ } -> Some mono_ns
                   | _ -> None)))
           t.peers
       with e ->
         close_all t;
         raise e);
      t
    with
    | t -> Ok t
    | exception Router_error e -> Error e
    | exception Invalid_argument e -> Error e

  let dial spec =
    let error msg =
      Router_error (Printf.sprintf "%s (%s:%d): %s" spec.peer_name spec.host spec.port msg)
    in
    let addr =
      match Unix.inet_addr_of_string spec.host with
      | addr -> addr
      | exception Failure _ -> (
          match (Unix.gethostbyname spec.host).Unix.h_addr_list with
          | [||] | (exception Not_found) -> raise (error "unknown host")
          | addrs -> addrs.(0))
    in
    let rec go k =
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      match Unix.connect fd (ADDR_INET (addr, spec.port)) with
      | () ->
          Unix.set_nonblock fd;
          fd
      | exception Unix.Unix_error ((ECONNREFUSED | ETIMEDOUT | EHOSTUNREACH | ENETUNREACH), _, _)
        when k + 1 < 10 ->
          close_fd fd;
          (* exponential backoff, capped at a second *)
          Unix.sleepf (Float.min 1.0 (0.05 *. Float.pow 2.0 (float_of_int k)));
          go (k + 1)
      | exception Unix.Unix_error (e, _, _) ->
          close_fd fd;
          raise (error (Unix.error_message e))
    in
    go 0

  (* The link over TCP, and the router's one [Unix.read] and one
     [Unix.write] call site. *)
  let sockets specs =
    let fds = Hashtbl.create 8 in
    let fd name =
      try Hashtbl.find fds name with Not_found -> raise (Router_error (name ^ ": not connected"))
    in
    let ready names fds = List.filter (fun n -> List.mem (fd n) fds) names in
    {
      dial =
        (fun name ->
          Hashtbl.replace fds name (dial (List.find (fun s -> s.peer_name = name) specs)));
      close =
        (fun name ->
          Option.iter close_fd (Hashtbl.find_opt fds name);
          Hashtbl.remove fds name);
      select =
        (fun r w ->
          match Unix.select (List.map fd r) (List.map fd w) [] (-1.0) with
          | rs, ws, _ -> (ready r rs, ready w ws)
          | exception Unix.Unix_error (EINTR, _, _) -> ([], []));
      read = (fun name buf pos len -> Unix.read (fd name) buf pos len);
      write = (fun name buf pos len -> Unix.write (fd name) buf pos len);
    }

  let connect ?replicas specs =
    (* a node that dies mid-stream must surface as EPIPE on the next
       write, which redials, not as a process-killing SIGPIPE *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    over ?replicas (sockets specs) (List.map (fun s -> s.peer_name) specs)

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
    let p = route t.ring t.peers item in
    if Server.Outbox.owed p.c.out >= batch_bytes then flush t p

  let send t item = guard t (fun t item -> send_item t item; Ok ()) item
  let send_stream t items = guard t (fun t items -> Array.iter (send_item t) items; Ok ()) items

  (* An operation of the fleet as a whole, on every node. *)
  let fleet t f = guard t (fun t () -> Ok (f t)) ()
  let flush_all t = fleet t (fun t -> List.iter (fun (_, p) -> flush t p) t.peers)

  let lost_items t =
    List.fold_left (fun acc (_, p) -> acc + p.lost) 0 t.peers

  (* ---- operations plane ------------------------------------------- *)

  let clock_sync t =
    fleet t (fun t ->
        List.iter
          (fun (_, p) ->
            (* the probe with the smallest round trip spent the least
               time queued anywhere, so dating its sample at the
               midpoint has the tightest error bound *)
            let best_rtt = ref Int64.max_int in
            for seq = 1 to 3 do
              flush t p;
              stage p.c (Frame.Clock_probe { seq });
              let rtt, offset_ns =
                probe t p ~what:"clock-reply" (function
                  | Frame.Clock_reply { seq = s; mono_ns; _ } when s = seq -> Some mono_ns
                  | _ -> None)
              in
              if Int64.compare rtt !best_rtt < 0 then begin
                best_rtt := rtt;
                p.offset_ns <- offset_ns
              end
            done)
          t.peers)

  let health t =
    fleet t (fun t ->
        List.map
          (fun (p, h) -> (p.name, h))
          (ask t Frame.Health_req ~what:"health" (function Frame.Health_resp h -> Some h | _ -> None)))

  let spans t =
    fleet t (fun t ->
        List.map
          (fun (p, spans) -> (p.name, p.offset_ns, spans))
          (ask t Frame.Spans_req ~what:"spans" (function Frame.Spans_resp s -> Some s | _ -> None)))

  let close t =
    (* drop the connections without [Bye]: the observation commands
       ([status], [top]) must not shut the fleet down on exit *)
    if not t.closed then begin
      t.closed <- true;
      close_all t
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

  let finish t =
    fleet t (fun t ->
        t.closed <- true;
        Fun.protect
          ~finally:(fun () -> close_all t)
          (fun () ->
            List.map snd (ask t Frame.Bye ~what:"summary" (function Frame.Summary s -> Some s | _ -> None))))
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
