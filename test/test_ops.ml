(* Tests for the cluster operations plane: the HTTP exposition served
   on the same port as both wires (/metrics, /healthz, /incidents), the
   fleet health rollup (merge_snapshots as a QCheck2 property against a
   manual fold), observation (trace propagation plus a mid-stream
   scrape keeps verdicts bit-for-bit), the one wire version (a node
   refuses an earlier build's v1-stamped hello and then serves a
   current router bit-for-bit), a serve loop no peer can stall (one
   that never reads, descriptors select cannot watch), log-file
   rotation, and the multi-process Chrome trace merge. The protocol
   checks drive a node's connections in process (Server.Conn); only
   the observation and serve-loop cases fork real nodes, and they run
   first, because a process that has spawned domains must not fork. *)

module Transport = Adprom_service.Transport
module Frame = Adprom_service.Frame
module Server = Adprom_service.Server
module Cluster = Adprom_service.Cluster
module Daemon = Adprom_service.Daemon
module Replay = Adprom_service.Replay
module Metrics = Adprom_service.Metrics
module Health = Adprom_service.Health
module Alerts = Adprom_service.Alerts
module Log = Adprom_obs.Log
module Trace = Adprom_obs.Trace
module Detector = Adprom.Detector
module Pipeline = Adprom.Pipeline
module Sessions = Adprom.Sessions
module Symbol = Analysis.Symbol

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  if nl = 0 then true
  else begin
    let found = ref false in
    for i = 0 to hl - nl do
      if (not !found) && String.sub hay i nl = needle then found := true
    done;
    !found
  end

let count ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let c = ref 0 in
  if nl > 0 then
    for i = 0 to hl - nl do
      if String.sub hay i nl = needle then incr c
    done;
  !c

(* --- fixture: the same tiny trained app the cluster tests use -------------- *)

let fixture =
  lazy
    (let app =
       {
         Pipeline.name = "svc";
         source =
           {|
             fun main() {
               let db = db_connect("pg");
               let n = atoi(gets());
               for (let i = 0; i < n; i = i + 1) {
                 let r = pq_exec(db, "SELECT name FROM t");
                 let k = pq_ntuples(r);
                 for (let j = 0; j < k; j = j + 1) { printf("%s\n", pq_getvalue(r, j, 0)); }
               }
             }
           |};
         dbms = "PostgreSQL";
         setup_db =
           (fun e ->
             ignore (Sqldb.Engine.exec e "CREATE TABLE t (name)");
             ignore (Sqldb.Engine.exec e "INSERT INTO t VALUES ('a'), ('b')"));
         test_cases =
           List.init 6 (fun i ->
               Runtime.Testcase.make
                 ~input:[ string_of_int (1 + (i mod 3)) ]
                 (Printf.sprintf "c%d" i));
       }
     in
     let ds = Pipeline.collect app in
     (Pipeline.train ds, List.map snd ds.Pipeline.traces))

let stream_items () =
  let _, traces = Lazy.force fixture in
  let rng = Mlkit.Rng.create 41 in
  Array.map (fun ev -> Transport.Call ev) (Sessions.interleave ~rng traces)

(* --- HTTP exposition on the serve port -------------------------------------- *)

(* one raw request, read to EOF (the server closes after each response) *)
let http_request ~port request =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let b = Bytes.of_string request in
  let rec write_all pos =
    if pos < Bytes.length b then
      write_all (pos + Unix.write fd b pos (Bytes.length b - pos))
  in
  write_all 0;
  let buf = Buffer.create 1024 and chunk = Bytes.create 4096 in
  let rec read_all () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        read_all ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
  in
  read_all ();
  Unix.close fd;
  Buffer.contents buf

let http_get ~port target =
  http_request ~port
    (Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n" target)

let status_of_response resp =
  match String.index_opt resp ' ' with
  | Some i when String.length resp >= i + 4 ->
      int_of_string_opt (String.sub resp (i + 1) 3)
  | _ -> None

let body_of_response resp =
  let rec find i =
    if i + 3 >= String.length resp then String.length resp
    else if String.sub resp i 4 = "\r\n\r\n" then i + 4
    else find (i + 1)
  in
  let i = find 0 in
  String.sub resp i (String.length resp - i)

let check_status what expected resp =
  Alcotest.(check (option int)) (what ^ " status") (Some expected)
    (status_of_response resp)

(* The serve loop of a forked node named [name], for [Cluster.with_local]. *)
let serve_node ~shards profile name socket =
  ignore (Server.serve ~socket ~name ~shards profile)

(* --- fleet rollup = manual fold (QCheck2) ------------------------------------ *)

let hist_bounds = [| 0.1; 1.0 |]

let gen_snapshot =
  QCheck2.Gen.(
    let gauge =
      map
        (fun (v, extra) -> ("g_depth", v, v + extra))
        (pair (int_range 0 1000) (int_range 0 1000))
    in
    let hist =
      map
        (fun (b, s) ->
          {
            Metrics.hs_name = "h_lat";
            hs_bounds = hist_bounds;
            hs_buckets = Array.of_list b;
            hs_sum = float_of_int s /. 16.;
            hs_count = List.fold_left ( + ) 0 b;
          })
        (pair
           (flatten_l [ int_range 0 50; int_range 0 50; int_range 0 50 ])
           (int_range 0 1000))
    in
    map3
      (fun (a, b) g h ->
        {
          (* -1 = the counter is absent on this node *)
          Metrics.counters =
            (if a < 0 then [] else [ ("a_total", a) ])
            @ (if b < 0 then [] else [ ("b_total", b) ]);
          gauges = [ g ];
          histograms = [ h ];
        })
      (pair (int_range (-1) 10_000) (int_range (-1) 10_000))
      gauge hist)

let prop_rollup_equals_fold =
  QCheck2.Test.make ~name:"fleet rollup = manual per-metric fold" ~count:200
    QCheck2.Gen.(list_size (int_range 1 5) gen_snapshot)
    (fun snaps ->
      let merged = Metrics.merge_snapshots snaps in
      (* counters sum by name *)
      let sum name =
        List.fold_left
          (fun acc (s : Metrics.snapshot) ->
            acc + Metrics.snapshot_counter s name)
          0 snaps
      in
      List.iter
        (fun name ->
          let expect = sum name in
          let present =
            List.exists
              (fun (s : Metrics.snapshot) ->
                List.mem_assoc name s.Metrics.counters)
              snaps
          in
          let got = Metrics.snapshot_counter merged name in
          if present && got <> expect then
            QCheck2.Test.fail_reportf "counter %s: %d <> %d" name got expect;
          if (not present) && List.mem_assoc name merged.Metrics.counters then
            QCheck2.Test.fail_reportf "counter %s materialized from nothing" name)
        [ "a_total"; "b_total" ];
      (* gauges and watermarks take the max *)
      let gv, gm =
        List.fold_left
          (fun (gv, gm) (s : Metrics.snapshot) ->
            List.fold_left
              (fun (gv, gm) (n, v, m) ->
                if n = "g_depth" then (max gv v, max gm m) else (gv, gm))
              (gv, gm) s.Metrics.gauges)
          (min_int, min_int) snaps
      in
      (match
         List.find_opt (fun (n, _, _) -> n = "g_depth") merged.Metrics.gauges
       with
      | None -> QCheck2.Test.fail_reportf "gauge lost in merge"
      | Some (_, v, m) ->
          if (v, m) <> (gv, gm) then
            QCheck2.Test.fail_reportf "gauge fold: (%d,%d) <> (%d,%d)" v m gv gm);
      (* histograms add bucket-wise, so fleet quantiles come from the
         merged buckets *)
      let buckets =
        List.fold_left
          (fun acc (s : Metrics.snapshot) ->
            match Metrics.snapshot_histogram s "h_lat" with
            | None -> acc
            | Some h ->
                Array.mapi (fun i b -> b + h.Metrics.hs_buckets.(i)) acc)
          [| 0; 0; 0 |] snaps
      in
      match Metrics.snapshot_histogram merged "h_lat" with
      | None -> QCheck2.Test.fail_reportf "histogram lost in merge"
      | Some h ->
          if h.Metrics.hs_buckets <> buckets then
            QCheck2.Test.fail_reportf "bucket fold mismatch";
          if h.Metrics.hs_count <> Array.fold_left ( + ) 0 buckets then
            QCheck2.Test.fail_reportf "count fold mismatch";
          let manual =
            { h with Metrics.hs_buckets = buckets }
          in
          List.for_all
            (fun q ->
              let a = Metrics.hist_quantile h q
              and b = Metrics.hist_quantile manual q in
              a = b || (Float.is_nan a && Float.is_nan b))
            [ 0.5; 0.9; 0.99 ])

(* --- observation leaves verdicts unchanged ------------------------------------ *)

let verdict_key (v : Detector.verdict) =
  ( v.Detector.flag,
    Int64.bits_of_float v.Detector.score,
    v.Detector.unknown_symbol,
    v.Detector.unknown_pair )

let session_key (r : Daemon.session_report) =
  ( r.Daemon.session,
    r.Daemon.events,
    r.Daemon.windows,
    r.Daemon.worst,
    List.map verdict_key r.Daemon.verdicts )

(* [f ()] computed in a forked child and marshalled back: a process
   that has spawned domains may not fork, and the later cases still
   fork nodes. The child never returns into the test runner. *)
let in_child (f : unit -> 'a) : 'a =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 -> (
      Unix.close r;
      match f () with
      | v ->
          let oc = Unix.out_channel_of_descr w in
          Marshal.to_channel oc v [];
          close_out oc;
          Unix._exit 0
      | exception e ->
          prerr_endline (Printexc.to_string e);
          Unix._exit 1)
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      Fun.protect
        ~finally:(fun () ->
          close_in ic;
          ignore (Unix.waitpid [] pid))
        (fun () -> Marshal.from_channel ic)

(* The [# HELP] line of metric family [name] in an exposition. *)
let help_line name body =
  let prefix = "# HELP " ^ name ^ " " in
  List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' body)

(* The router traces, so every batch to a node is followed by a
   Trace_mark that the node turns into a wire.batch span, and one node's
   /metrics is scraped while the stream is half sent; the fleet dump
   must print that scrape's help texts. None of it may change what the
   detector says: the merged summary must equal an untraced single-node
   replay. An intruder session makes the incident comparison
   non-empty. *)
let test_observation_keeps_verdicts () =
  let profile, _ = Lazy.force fixture in
  let intruder =
    Array.init 20 (fun i ->
        Transport.Call
          {
            Transport.session = 97;
            event =
              {
                Runtime.Collector.caller = "intruder";
                block = 3;
                symbol =
                  Symbol.Lib
                    { name = Printf.sprintf "evil%d" (i mod 3); label = None; site = None };
              };
          })
  in
  let items = Array.append (stream_items ()) intruder in
  Cluster.with_local [ "alpha"; "beta" ] (serve_node ~shards:2 profile) @@ fun nodes ->
  let send router part =
    match Cluster.Router.send_stream router part with
    | Error e -> Alcotest.failf "send: %s" e
    | Ok () -> (
        match Cluster.Router.flush_all router with
        | Error e -> Alcotest.failf "flush: %s" e
        | Ok () -> ())
  in
  let summaries, node_spans =
    Trace.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Trace.set_enabled false;
        Trace.clear ())
      (fun () ->
        let peers =
          List.map
            (fun (l : Cluster.local) ->
              { Cluster.peer_name = l.Cluster.name; host = "127.0.0.1"; port = l.Cluster.port })
            nodes
        in
        match Cluster.Router.connect peers with
        | Error e -> Alcotest.failf "connect: %s" e
        | Ok router -> (
            let half = Array.length items / 2 in
            send router (Array.sub items 0 half);
            let m = http_get ~port:(List.hd nodes).Cluster.port "/metrics" in
            check_status "mid-stream /metrics" 200 m;
            Alcotest.(check bool) "mid-stream scrape sees ingest" true
              (contains ~needle:"adprom_events_ingested_total" (body_of_response m));
            send router (Array.sub items half (Array.length items - half));
            (match Cluster.Router.metrics router with
            | Error e -> Alcotest.failf "fleet metrics: %s" e
            | Ok fleet ->
                List.iter
                  (fun family ->
                    Alcotest.(check (option string))
                      (family ^ " help: fleet dump = node /metrics")
                      (help_line family (body_of_response m))
                      (help_line family fleet))
                  [
                    "adprom_e2e_latency_seconds";
                    "adprom_queue_wait_seconds";
                    "adprom_score_latency_seconds";
                  ]);
            let spans =
              match Cluster.Router.spans router with
              | Error e -> Alcotest.failf "spans: %s" e
              | Ok groups -> groups
            in
            Alcotest.(check int) "no items lost" 0 (Cluster.Router.lost_items router);
            match Cluster.Router.finish router with
            | Error e -> Alcotest.failf "finish: %s" e
            | Ok summaries -> (summaries, spans)))
  in
  List.iter Cluster.wait_local nodes;
  List.iter
    (fun (name, _, spans) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s recorded wire.batch spans" name)
        true
        (List.exists (fun (s : Trace.span) -> s.Trace.name = "wire.batch") spans))
    node_spans;
  Alcotest.(check int) "every node answered spans" 2 (List.length node_spans);
  let merged = Cluster.merge summaries in
  let m = merged.Frame.summary in
  let ingested, sessions, incidents =
    in_child (fun () ->
        let single = Replay.run (Daemon.create ~shards:2 profile) items in
        let s = single.Replay.summary in
        ( s.Daemon.events_ingested,
          List.map session_key s.Daemon.sessions,
          List.sort compare
            (List.map
               (fun (i : Alerts.incident) ->
                 (i.Alerts.session, Alerts.source_to_string i.Alerts.source))
               (Alerts.incidents single.Replay.alerts)) ))
  in
  Alcotest.(check int) "events ingested" ingested m.Daemon.events_ingested;
  Alcotest.(check bool) "session reports bit-for-bit equal" true
    (sessions = List.map session_key m.Daemon.sessions);
  Alcotest.(check bool) "incidents exist" true (incidents <> []);
  Alcotest.(check bool) "incident multiset equal" true
    (incidents = List.sort compare merged.Frame.incidents)

(* --- serve loop: no peer stalls or crashes the node -------------------------- *)

let peers_of nodes =
  List.map
    (fun (l : Cluster.local) ->
      { Cluster.peer_name = l.Cluster.name; host = "127.0.0.1"; port = l.Cluster.port })
    nodes

(* Stream [items] through a router to [nodes] and finish: the merged
   summary, which must hold the verdicts of a single-node replay. *)
let route_and_finish nodes items =
  match Cluster.Router.connect (peers_of nodes) with
  | Error e -> Alcotest.failf "connect: %s" e
  | Ok router -> (
      (match Cluster.Router.send_stream router items with
      | Ok () -> ()
      | Error e -> Alcotest.failf "send: %s" e);
      Alcotest.(check int) "no items lost" 0 (Cluster.Router.lost_items router);
      match Cluster.Router.finish router with
      | Error e -> Alcotest.failf "finish: %s" e
      | Ok summaries -> Cluster.merge summaries)

let check_pinned ~shards profile items merged =
  let single =
    in_child (fun () ->
        List.map session_key
          (Replay.run (Daemon.create ~shards profile) items).Replay.summary.Daemon.sessions)
  in
  Alcotest.(check bool) "verdicts bit-for-bit the single-node replay's" true
    (single = List.map session_key merged.Frame.summary.Daemon.sessions)

let raw_connect ?rcvbuf port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Option.iter (Unix.setsockopt_int fd Unix.SO_RCVBUF) rcvbuf;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* A peer pipelines health requests on one connection and never reads a
   reply. Its replies back up into the node, which stops reading it
   once it owes a megabyte; a router on another connection streams and
   finishes meanwhile, verdicts pinned. *)
let test_unread_replies () =
  let profile, _ = Lazy.force fixture in
  let items = stream_items () in
  Cluster.with_local [ "alpha" ] (serve_node ~shards:2 profile) @@ fun nodes ->
  let node = List.hd nodes in
  let hog = raw_connect ~rcvbuf:4096 node.Cluster.port in
  let requests =
    let enc = Frame.Encoder.create () and buf = Buffer.create (1 lsl 18) in
    for _ = 1 to 32_768 do
      Frame.Encoder.add enc buf Frame.Health_req
    done;
    Frame.Encoder.flush enc buf;
    Buffer.to_bytes buf
  in
  (* send what the socket takes: the node may stop reading before all
     of it, and this process must not block on that *)
  Unix.set_nonblock hog;
  let rec send pos =
    if pos < Bytes.length requests then
      match Unix.write hog requests pos (Bytes.length requests - pos) with
      | n -> send (pos + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> pos
    else pos
  in
  let sent = send 0 in
  Alcotest.(check bool) "requests sent" true (sent >= 65_536);
  let merged = route_and_finish nodes items in
  Cluster.wait_local node;
  Unix.close hog;
  check_pinned ~shards:2 profile items merged

(* The node holds every descriptor below select's FD_SETSIZE (1024) but
   one: a router's connection gets the last watchable descriptor and a
   raw client's the first one past it. The raw client is refused at
   once, the refusal is counted, and the router is served bit-for-bit. *)
let test_fd_setsize_refused () =
  let profile, _ = Lazy.force fixture in
  let items = stream_items () in
  let fill_below_fd_setsize () =
    let selectable fd =
      match Unix.select [ fd ] [] [] 0.0 with
      | _ -> true
      | exception Unix.Unix_error (Unix.EINVAL, _, _) -> false
    in
    let rec hold last =
      let fd = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
      if selectable fd then hold (Some fd)
      else begin
        Unix.close fd;
        Option.iter Unix.close last
      end
    in
    hold None
  in
  Cluster.with_local [ "edge" ]
    (fun name socket ->
      fill_below_fd_setsize ();
      serve_node ~shards:2 profile name socket)
  @@ fun nodes ->
  let node = List.hd nodes in
  match Cluster.Router.connect (peers_of nodes) with
  | Error e -> Alcotest.failf "connect: %s" e
  | Ok router ->
      let raw = raw_connect node.Cluster.port in
      let answer = Bytes.create 16 in
      let got = try Unix.read raw answer 0 16 with Unix.Unix_error (Unix.ECONNRESET, _, _) -> 0 in
      Unix.close raw;
      Alcotest.(check int) "the raw client sees EOF only" 0 got;
      (match Cluster.Router.health router with
      | Ok [ (_, h) ] ->
          Alcotest.(check int) "one refusal counted" 1
            (Metrics.snapshot_counter h.Frame.h_snapshot
               "adprom_wire_connections_refused_total")
      | Ok _ -> Alcotest.fail "expected one node's health"
      | Error e -> Alcotest.failf "health: %s" e);
      (match Cluster.Router.send_stream router items with
      | Ok () -> ()
      | Error e -> Alcotest.failf "send: %s" e);
      let merged =
        match Cluster.Router.finish router with
        | Error e -> Alcotest.failf "finish: %s" e
        | Ok summaries -> Cluster.merge summaries
      in
      Cluster.wait_local node;
      check_pinned ~shards:2 profile items merged

(* --- the same node in process: Server.Conn with no socket ------------------- *)

(* A node's connections without a socket; the daemon is the caller's to
   drain. *)
let in_process ~shards profile name =
  let daemon = Daemon.create ~shards profile in
  (daemon, Server.Conn.node ~name daemon)

(* Everything the connection owes its peer, taken at once. *)
let answer c =
  let out = Buffer.create 256 in
  Server.Conn.drain c (fun b pos len ->
      Buffer.add_subbytes out b pos len;
      len);
  Buffer.contents out

(* One connection: [bytes] in, the answer out, and whether the node then
   closes it. *)
let exchange node bytes =
  let c = Server.Conn.create node in
  Server.Conn.feed c bytes;
  (c, answer c)

let conn_http_request node request =
  let c, resp = exchange node request in
  Alcotest.(check bool) "one request per connection" true
    (Server.Conn.state c = Server.Conn.Closing);
  resp

let conn_http_get node target =
  conn_http_request node (Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n" target)

(* What a router sends: a hello, then [frames]. *)
let router_bytes frames =
  let enc = Frame.Encoder.create () and buf = Buffer.create 4096 in
  List.iter (Frame.Encoder.add enc buf) (Frame.Hello { peer = "router"; sample = None } :: frames);
  Frame.Encoder.flush enc buf;
  Buffer.contents buf

let frames_of s =
  match Frame.Decoder.feed (Frame.Decoder.create ()) s with
  | Ok frames -> frames
  | Error e -> Alcotest.failf "node answered undecodable bytes: %s" (Frame.error_to_string e)

(* A router's whole session on one connection: hello, [frames], bye; the
   node drains its daemon and answers with its summary. *)
let finish_in_process daemon node frames =
  let c = Server.Conn.create node in
  Server.Conn.feed c (router_bytes (frames @ [ Frame.Bye ]));
  Server.Conn.summarize c (Daemon.drain daemon);
  match frames_of (answer c) with
  | Frame.Hello _ :: rest -> (
      match List.rev rest with
      | Frame.Summary s :: _ -> s
      | _ -> Alcotest.fail "no summary after bye")
  | _ -> Alcotest.fail "no hello back"

let test_http_endpoints () =
  let profile, _ = Lazy.force fixture in
  let daemon, node = in_process ~shards:2 profile "web" in
  (* /healthz: a fresh node is healthy, and the body is the Health JSON *)
  let hz = conn_http_get node "/healthz" in
  check_status "/healthz" 200 hz;
  Alcotest.(check bool) "/healthz content-type json" true
    (contains ~needle:"Content-Type: application/json" hz);
  let hz_body = body_of_response hz in
  Alcotest.(check bool) "/healthz says ok" true
    (contains ~needle:"\"status\":\"ok\"" hz_body);
  Alcotest.(check bool) "/healthz names the node" true
    (contains ~needle:"\"node\":\"web\"" hz_body);
  (* /metrics: Prometheus text with the HELP/TYPE preamble and the full
     cumulative bucket series of the e2e histogram *)
  let m = conn_http_get node "/metrics" in
  check_status "/metrics" 200 m;
  let mb = body_of_response m in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "/metrics has %S" needle)
        true (contains ~needle mb))
    [
      "# TYPE adprom_e2e_latency_seconds histogram";
      "adprom_e2e_latency_seconds_bucket{le=\"+Inf\"}";
      "# TYPE adprom_queue_wait_seconds histogram";
      "# TYPE adprom_http_requests_total counter";
    ];
  (* /incidents: a JSON tail, empty on a quiet node *)
  let inc = conn_http_get node "/incidents?n=5" in
  check_status "/incidents" 200 inc;
  Alcotest.(check bool) "/incidents is a JSON tail" true
    (contains ~needle:"\"incidents\":[" (body_of_response inc));
  (* error paths: unknown target and a bad n= *)
  check_status "unknown path" 404 (conn_http_get node "/nope");
  check_status "bad n=" 400 (conn_http_get node "/incidents?n=bogus");
  (* HEAD answers the header only *)
  let head =
    conn_http_request node "HEAD /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n"
  in
  check_status "HEAD /healthz" 200 head;
  Alcotest.(check string) "HEAD body empty" "" (body_of_response head);
  (* the binary wire still works on the same node: drain via a router *)
  ignore (finish_in_process daemon node [])

(* The value of one counter line in a /metrics body. *)
let counter_value name body =
  List.find_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ n; v ] when n = name -> int_of_string_opt v
      | _ -> None)
    (String.split_on_char '\n' body)

let decode_errors node =
  match
    counter_value "adprom_wire_decode_errors_total" (body_of_response (conn_http_get node "/metrics"))
  with
  | Some n -> n
  | None -> Alcotest.fail "no adprom_wire_decode_errors_total in /metrics"

(* A raw client sends the hello an earlier build's router sent: stamped
   version 1, payload [varint 2][str "router"]. The node must answer
   nothing, close, and count a decode error — and still serve a normal
   router afterwards, verdicts bit-for-bit the single-node replay's. *)
let test_v1_hello_refused () =
  let profile, _ = Lazy.force fixture in
  let items = stream_items () in
  let daemon, node = in_process ~shards:2 profile "alpha" in
  let before = decode_errors node in
  let v1_hello = Frame.magic ^ "\x01\x00\x00\x00\x00\x08\x02\x06router" in
  let c, answer = exchange node v1_hello in
  let after = decode_errors node in
  let merged =
    finish_in_process daemon node
      (List.map
         (function Transport.Call ev -> Frame.Call ev | Transport.Query q -> Frame.Query q)
         (Array.to_list items))
  in
  Alcotest.(check string) "no hello back, only EOF" "" answer;
  Alcotest.(check bool) "closed" true (Server.Conn.state c = Server.Conn.Closing);
  Alcotest.(check int) "decode error counted" (before + 1) after;
  Alcotest.(check int) "no items lost" (Array.length items) merged.Frame.summary.Daemon.events_ingested;
  let single = Replay.run (Daemon.create ~shards:2 profile) items in
  Alcotest.(check bool) "verdicts bit-for-bit after the refusal" true
    (List.map session_key single.Replay.summary.Daemon.sessions
    = List.map session_key merged.Frame.summary.Daemon.sessions)

(* Tags 4 and 5 are unassigned. A raw client sends a frame with each,
   on its own connection: the node must answer nothing, close, count
   a decode error per frame, and still answer a router's health
   exchange afterwards. *)
let test_unassigned_tags_refused () =
  let profile, _ = Lazy.force fixture in
  let daemon, node = in_process ~shards:1 profile "alpha" in
  let before = decode_errors node in
  let answers =
    List.map
      (fun tag ->
        let c, answer =
          exchange node
            (Frame.magic
            ^ String.make 1 (Char.chr Frame.protocol_version)
            ^ String.make 1 (Char.chr tag)
            ^ "\x00\x00\x00\x00")
        in
        Alcotest.(check bool) "closed" true (Server.Conn.state c = Server.Conn.Closing);
        answer)
      [ 4; 5 ]
  in
  let after = decode_errors node in
  let _, health = exchange node (router_bytes [ Frame.Health_req ]) in
  ignore (Daemon.drain daemon);
  Alcotest.(check (list string)) "no reply, only EOF" [ ""; "" ] answers;
  Alcotest.(check int) "one decode error per frame" (before + 2) after;
  match frames_of health with
  | [ Frame.Hello _; Frame.Health_resp h ] ->
      Alcotest.(check string) "still serving" "ok"
        (Health.status_to_string h.Frame.h_status)
  | _ -> Alcotest.fail "expected a hello and one health reply"

(* --- log rotation ------------------------------------------------------------- *)

let test_log_rotation () =
  let path = Filename.temp_file "adprom_ops_log" ".jsonl" in
  let old_threshold = Log.threshold () in
  Fun.protect
    ~finally:(fun () ->
      Log.set_sink Log.Null;
      Log.set_threshold old_threshold;
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; path ^ ".1" ])
    (fun () ->
      Alcotest.check_raises "zero budget rejected"
        (Invalid_argument "Log.to_file: max_bytes must be > 0") (fun () ->
          Log.to_file ~max_bytes:0 path);
      Log.set_threshold Log.Info;
      Log.to_file ~max_bytes:2048 path;
      for i = 1 to 200 do
        Log.emit Log.Info ~scope:"ops.test"
          (Printf.sprintf "rotation filler line %04d padding-padding-padding" i)
      done;
      Log.set_sink Log.Null;
      let size p = (Unix.stat p).Unix.st_size in
      Alcotest.(check bool) "rotated generation exists" true
        (Sys.file_exists (path ^ ".1"));
      Alcotest.(check bool) "live file within budget" true (size path <= 2048);
      Alcotest.(check bool) "rotated file within budget" true
        (size (path ^ ".1") <= 2048);
      (* no line was torn across the rollover: every line in both
         generations parses back to its message *)
      List.iter
        (fun p ->
          let ic = open_in p in
          (try
             while true do
               let line = input_line ic in
               if not (contains ~needle:"rotation filler line" line) then
                 Alcotest.failf "torn line in %s: %s" p line
             done
           with End_of_file -> ());
          close_in ic)
        [ path; path ^ ".1" ])

(* --- cluster Chrome trace merge ----------------------------------------------- *)

let mk_span ?(attrs = []) name start_ns =
  {
    Trace.name;
    trace_id = 7;
    span_id = 8;
    parent = None;
    domain = 0;
    start_ns;
    dur_ns = 10_000L;
    attrs;
  }

let test_chrome_cluster_merge () =
  (* the node's clock runs 1ms ahead (offset = local - reference), so
     its 3ms span aligns exactly onto the router's 2ms span *)
  let groups =
    [
      ("router", 0L, [ mk_span "route.batch" 2_000_000L ]);
      ("alpha", 1_000_000L, [ mk_span "wire.batch" 3_000_000L ]);
    ]
  in
  let json = Trace.to_chrome_json_cluster groups in
  Alcotest.(check int) "one process_name metadata event per group" 2
    (count ~needle:"\"process_name\"" json);
  Alcotest.(check bool) "groups are distinct pids" true
    (contains ~needle:"\"pid\":1" json && contains ~needle:"\"pid\":2" json);
  Alcotest.(check bool) "names survive" true
    (contains ~needle:"\"router\"" json && contains ~needle:"\"alpha\"" json);
  Alcotest.(check int) "offset-aligned spans share the epoch" 2
    (count ~needle:"\"ts\":0.000" json);
  (* no groups at all still renders a valid (empty) trace *)
  Alcotest.(check bool) "empty merge renders" true
    (contains ~needle:"traceEvents" (Trace.to_chrome_json_cluster []))

let () =
  Alcotest.run "ops"
    [
      ( "rollup",
        [ QCheck_alcotest.to_alcotest prop_rollup_equals_fold ] );
      (* the cases that fork nodes come first: the in-process cases
         below spawn daemon domains, after which no process may fork *)
      ( "obs",
        [
          Alcotest.test_case "traced, scraped, verdicts pinned" `Quick
            test_observation_keeps_verdicts;
        ] );
      ( "serve",
        [
          Alcotest.test_case "unread replies stall no one" `Quick test_unread_replies;
          Alcotest.test_case "past FD_SETSIZE refused, node serves on" `Quick
            test_fd_setsize_refused;
        ] );
      ( "http",
        [ Alcotest.test_case "exposition endpoints" `Quick test_http_endpoints ] );
      ( "wire",
        [
          Alcotest.test_case "unassigned tags refused, node serves on" `Quick
            test_unassigned_tags_refused;
          Alcotest.test_case "v1 hello refused, verdicts pinned" `Quick
            test_v1_hello_refused;
        ] );
      ( "log",
        [ Alcotest.test_case "file sink rotation" `Quick test_log_rotation ] );
      ( "trace",
        [
          Alcotest.test_case "cluster merge aligns clocks" `Quick
            test_chrome_cluster_merge;
        ] );
    ]
