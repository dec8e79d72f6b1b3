(* Nodes in process, shared by the node simulation (test_service), the
   cluster simulation (test_cluster) and the in-process cluster cases
   (test_ops). A node is Server.Conn connections over its own daemon;
   [link] is a Cluster.Router.link that moves a router's bytes to and
   from those connections under a seeded scheduler, with no socket and
   no fork. *)

module Transport = Adprom_service.Transport
module Frame = Adprom_service.Frame
module Server = Adprom_service.Server
module Cluster = Adprom_service.Cluster
module Daemon = Adprom_service.Daemon
module Replay = Adprom_service.Replay
module Alerts = Adprom_service.Alerts
module Detector = Adprom.Detector
module Conn = Server.Conn

(* --- reads, writes and summaries ------------------------------------------ *)

(* A read's or a write's size: up to 16 B, 4 KiB or 64 KiB, alike often. *)
let chunk st =
  1 + Random.State.int st (match Random.State.int st 3 with 0 -> 16 | 1 -> 4096 | _ -> 65536)

(* Whatever a peer takes of what [c] owes: each write takes a random
   part of what it is offered. *)
let drain_some st c into =
  Conn.drain c (fun b pos len ->
      let k = Random.State.int st (len + 1) in
      Buffer.add_subbytes into b pos k;
      k)

let frames_of bytes =
  match Frame.Decoder.feed (Frame.Decoder.create ()) ~len:(String.length bytes) bytes with
  | Ok frames -> frames
  | Error e -> QCheck2.Test.fail_reportf "node output undecodable: %s" (Frame.error_to_string e)

let session_key (r : Daemon.session_report) =
  ( r.Daemon.session, r.Daemon.events, r.Daemon.windows, r.Daemon.worst,
    List.map
      (fun (v : Detector.verdict) ->
        (v.Detector.flag, Int64.bits_of_float v.Detector.score, v.Detector.unknown_symbol,
         v.Detector.unknown_pair))
      r.Daemon.verdicts )

(* [got] must be what [Replay.run] makes of [items] on one daemon with
   [shards] shards: nothing dropped, the same ingest count, session
   reports with their score bits, incident multiset and fused axes. *)
let check_replay ?(shards = 1) profile (got : Frame.node_summary) items =
  let single = Replay.run (Daemon.create ~shards ~queue_capacity:(1 lsl 20) profile) items in
  let s = got.Frame.summary and want = single.Replay.summary in
  if s.Daemon.events_dropped <> 0 then
    QCheck2.Test.fail_reportf "%d events dropped" s.Daemon.events_dropped;
  if s.Daemon.events_ingested <> want.Daemon.events_ingested then
    QCheck2.Test.fail_reportf "ingested %d, replay %d" s.Daemon.events_ingested
      want.Daemon.events_ingested;
  if List.map session_key s.Daemon.sessions <> List.map session_key want.Daemon.sessions then
    QCheck2.Test.fail_reportf "session reports differ from Replay.run";
  let rendered (i : Alerts.incident) = (i.Alerts.session, Alerts.source_to_string i.Alerts.source) in
  if List.sort compare got.Frame.incidents
     <> List.sort compare (List.map rendered (Alerts.incidents single.Replay.alerts))
  then QCheck2.Test.fail_reportf "incident multiset differs from Replay.run";
  let fused (r : Daemon.session_report) =
    (r.Daemon.session, Alerts.fused_axes single.Replay.alerts ~session:r.Daemon.session)
  in
  if List.sort compare got.Frame.fused <> List.map fused want.Daemon.sessions then
    QCheck2.Test.fail_reportf "fused axes differ from Replay.run"

(* --- nodes and the link a router reaches them by -------------------------- *)

type node = {
  name : string;
  daemon : Daemon.t;
  node : Conn.node;
  mutable conn : Conn.t option;  (* the router's connection, while open *)
  mutable tap : Frame.Decoder.t;  (* the frames the node read on it *)
  mutable back : Frame.Decoder.t;  (* the frames the router read on it *)
  mutable items : int;  (* items ingested on it *)
  mutable acked : int;  (* the last ack the router read on it *)
  mutable closed : (int * int) list;  (* [(items, acked)] of each closed one, newest first *)
  mutable ingested : Transport.item list;  (* on every connection, newest first *)
  mutable drained : bool;
  mutable hang_next : bool;  (* the next read is the node hanging up *)
}

(* A fault in what a node sends the router: [Truncate] cuts a read
   short and hangs up, [Corrupt] flips one byte of a read, and [Inject]
   slips a whole frame in between two of the node's own. *)
type fault = Truncate | Corrupt | Inject of string

type t = {
  st : Random.State.t;
  nodes : node list;
  mutable hangups : int;  (* node hang-ups still to come while routing *)
  mutable routing : bool;  (* hang-ups and injections happen only while set *)
  mutable fault : (string * int * fault) option;  (* node, its reads to go, fault *)
  mutable fired : bool;  (* the fault has reached the router *)
  mutable calls : int;  (* link operations so far *)
}

let create ?(shards = 1) ~seed profile names =
  {
    st = Random.State.make [| seed |];
    nodes =
      List.map
        (fun name ->
          let daemon = Daemon.create ~shards ~queue_capacity:(1 lsl 20) profile in
          { name; daemon; node = Conn.node ~name daemon; conn = None; tap = Frame.Decoder.create ();
            back = Frame.Decoder.create (); items = 0; acked = 0; closed = []; ingested = [];
            drained = false; hang_next = false })
        names;
    hangups = 0;
    routing = false;
    fault = None;
    fired = false;
    calls = 0;
  }

let find sim name = List.find (fun n -> n.name = name) sim.nodes

(* Every daemon not yet drained by a [Bye] is drained now: its worker
   domains end with it. *)
let stop sim =
  List.iter
    (fun n ->
      if not n.drained then begin
        n.drained <- true;
        ignore (Daemon.drain n.daemon)
      end)
    sim.nodes

let conn n =
  match n.conn with
  | Some c -> c
  | None -> QCheck2.Test.fail_reportf "the router used node %s's connection while it was closed" n.name

let hang_up sim n =
  sim.hangups <- sim.hangups - 1;
  n.hang_next <- true

let dial sim name =
  let n = find sim name in
  if n.conn <> None then QCheck2.Test.fail_reportf "node %s dialed twice" name;
  n.conn <- Some (Conn.create n.node);
  n.tap <- Frame.Decoder.create ();
  n.back <- Frame.Decoder.create ();
  n.items <- 0;
  n.acked <- 0

let close sim name =
  let n = find sim name in
  Option.iter
    (fun c ->
      Conn.eof c;
      n.closed <- (n.items, n.acked) :: n.closed;
      n.conn <- None;
      n.hang_next <- false)
    n.conn

(* Of the nodes the router reads and writes, some that can: readable
   when the node owes bytes (or hangs up), writable while it reads. A
   node hanging up is always among them, so the router reads its EOF in
   the phase that scheduled the hang-up: one scheduled while routing
   cannot wait past [routing] and break a later request. A
   router waiting on nodes none of which can move would wait forever:
   a failure, unless a fault has reached it (a corrupt length field
   leaves it waiting for bytes that never come), and then the nodes it
   waits on hang up. *)
let select sim r w =
  let coin () = Random.State.bool sim.st in
  let ready_r =
    List.filter
      (fun name ->
        let n = find sim name in
        if sim.routing && sim.hangups > 0 && Random.State.int sim.st 16 = 0 then hang_up sim n;
        n.hang_next || Conn.owed (conn n) > 0
        || sim.routing && (not sim.fired) && Conn.state (conn n) = Conn.Open
           && match sim.fault with Some (v, 0, Inject _) -> v = name | _ -> false)
      r
  and ready_w = List.filter (fun name -> Conn.readable (conn (find sim name))) w in
  let some_r = List.filter (fun name -> (find sim name).hang_next || coin ()) ready_r in
  match (some_r, List.filter (fun _ -> coin ()) ready_w) with
  | [], [] -> (
      match (ready_r, ready_w) with
      | [], [] -> (
          match (sim.fault, r) with
          | Some _, _ :: _ when sim.fired ->
              List.iter (fun name -> (find sim name).hang_next <- true) r;
              (r, [])
          | _ ->
              QCheck2.Test.fail_reportf "the router waits on %s, and none of them can move"
                (String.concat ", " r))
      | name :: _, _ -> ([ name ], [])
      | [], name :: _ -> ([], [ name ]))
  | ready -> ready

let read sim name buf pos len =
  let n = find sim name in
  let c = conn n in
  let fault =
    match sim.fault with
    | Some (v, k, f) when v = name && not sim.fired ->
        if k > 0 then sim.fault <- Some (v, k - 1, f);
        if k > 0 then None else Some f
    | _ -> None
  in
  if n.hang_next then 0
  else begin
    let got =
      match fault with
      | Some (Inject frame) when sim.routing && Conn.owed c = 0 && Conn.state c = Conn.Open ->
          sim.fired <- true;
          Bytes.blit_string frame 0 buf pos (String.length frame);
          String.length frame
      | _ ->
          let want = min len (chunk sim.st) and got = ref 0 in
          Conn.drain c (fun b p l ->
              let k = min l (want - !got) in
              Bytes.blit b p buf (pos + !got) k;
              got := !got + k;
              k);
          !got
    in
    let got =
      match fault with
      | Some Corrupt when got > 0 ->
          sim.fired <- true;
          let i = pos + Random.State.int sim.st got in
          Bytes.set buf i (Char.chr (Char.code (Bytes.get buf i) lxor (1 + Random.State.int sim.st 255)));
          got
      | Some Truncate when got > 0 ->
          sim.fired <- true;
          n.hang_next <- true;
          Random.State.int sim.st got
      | _ -> got
    in
    (match Frame.Decoder.feed n.back ~len:got (Bytes.sub_string buf pos got) with
    | Ok frames -> List.iter (function Frame.Ack { count } -> n.acked <- count | _ -> ()) frames
    | Error _ -> ());
    got
  end

(* The router's bytes reach the node in chunks; a [Bye] drains the
   node's daemon and answers with its summary. *)
let write sim name buf pos len =
  let n = find sim name in
  let c = conn n in
  if sim.routing && sim.hangups > 0 && Random.State.int sim.st 16 = 0 then begin
    sim.hangups <- sim.hangups - 1;
    raise (Unix.Unix_error (Unix.EPIPE, "write", name))
  end;
  let k = min len (chunk sim.st) in
  let s = Bytes.sub_string buf pos k in
  Conn.feed c ~len:k s;
  (match Frame.Decoder.feed n.tap ~len:k s with
  | Ok frames ->
      List.iter
        (fun f ->
          let ingest it =
            n.items <- n.items + 1;
            n.ingested <- it :: n.ingested
          in
          match f with
          | Frame.Call ev -> ingest (Transport.Call ev)
          | Frame.Query q -> ingest (Transport.Query q)
          | _ -> ())
        frames
  | Error e ->
      QCheck2.Test.fail_reportf "the router sent node %s undecodable bytes: %s" name
        (Frame.error_to_string e));
  if Conn.state c = Conn.Bye && not n.drained then begin
    n.drained <- true;
    Conn.summarize c (Daemon.drain n.daemon)
  end;
  k

let link sim =
  let counted f =
    sim.calls <- sim.calls + 1;
    f
  in
  {
    Cluster.Router.dial = (fun name -> counted dial sim name);
    close = (fun name -> counted close sim name);
    select = (fun r w -> counted select sim r w);
    read = (fun name -> counted read sim name);
    write = (fun name -> counted write sim name);
  }

(* Every item a node ingested, node by node, each in arrival order. *)
let ingested sim = Array.of_list (List.concat_map (fun n -> List.rev n.ingested) sim.nodes)

(* What the router must count lost once it has finished: on each node,
   every item routed to a connection that broke, less what the node
   acked on it and the router read. *)
let lost sim items =
  let ring = Cluster.Ring.create (List.map (fun n -> n.name) sim.nodes) in
  List.fold_left
    (fun acc n ->
      let routed =
        Array.fold_left
          (fun k it -> if Cluster.Ring.node ring (Transport.item_session it) = n.name then k + 1 else k)
          0 items
      in
      match n.closed with
      | (last, _) :: broken -> acc + routed - last - List.fold_left (fun a (_, acked) -> a + acked) 0 broken
      | [] -> acc + routed)
    0 sim.nodes
