(* The scale-out tier: 2-node cluster scaling.

   Two serve nodes absorb a tenant burst a single node must shed. Nodes
   run a FIXED per-shard queue capacity — bounded queue memory is the
   daemon's operating constraint — and the burst is sized so one node's
   queue overflows and drops tenants at the door, while two nodes
   (double the aggregate capacity, sessions split by the
   consistent-hash ring) keep them. The figure of merit is accepted
   events/sec: events that made it into a detector queue, per second of
   the ingest window, written to BENCH_cluster.json. This is a capacity
   result, not a parallelism result. It is a single-shot figure: the
   serve-path layers are timed with medians and quartiles by
   bench/perf, which has no two-node workload yet.

   The correctness side lives in dune runtest: the merged 2-node
   summary equals the single-node replay bit for bit (test_cluster),
   and tracing plus a /metrics scrape leave the verdicts unchanged
   (test_ops). *)

module Service = Adprom_service
module Transport = Service.Transport
module Frame = Service.Frame
module Server = Service.Server
module Cluster = Service.Cluster
module Daemon = Service.Daemon

let sessions_count () = if !Common.smoke then 16 else 64
let repeats () = if !Common.smoke then 2 else 4
let capacity = 256 (* per-shard queue bound of the scaling runs *)

let workload () =
  let t = Lazy.force Common.ca_banking in
  let traces = List.map snd t.Common.dataset.Adprom.Pipeline.traces in
  let base = Array.of_list traces in
  let sessions =
    List.init (sessions_count ()) (fun i ->
        let tr = base.(i mod Array.length base) in
        Array.concat (List.init (repeats ()) (fun _ -> tr)))
  in
  let rng = Mlkit.Rng.create 4242 in
  (Lazy.force t.Common.adprom, Adprom.Sessions.interleave ~rng sessions)

let serve_node profile ~queue_capacity name socket =
  ignore
    (Server.serve ~socket ~name ~shards:1 ~queue_capacity ~keep_verdicts:false profile)

(* [route_burst] times the {e ingest window}: offering the whole
   stream, flushing every connection, and a metrics round-trip — each
   node answers the router's [Health_req] only after every prior frame
   on the connection, so when the clock stops every offered event has been
   accepted or shed by its node. The drain-and-score work behind
   [finish] stays outside the window: on this single-core box the
   scaling claim is a {e capacity} result (two bounded queues accept
   twice the events before shedding), not a parallelism one, and
   scoring time is proportional to whatever was accepted. *)
let route_burst nodes stream =
  let peers =
    List.map
      (fun (l : Cluster.local) ->
        { Cluster.peer_name = l.Cluster.name; host = "127.0.0.1"; port = l.Cluster.port })
      nodes
  in
  match Cluster.Router.connect peers with
  | Error e -> failwith ("router connect: " ^ e)
  | Ok router -> (
      let items = Array.map (fun ev -> Transport.Call ev) stream in
      let ((), ingest_s) =
        Common.time (fun () ->
            (match Cluster.Router.send_stream router items with
            | Error e -> failwith ("router send: " ^ e)
            | Ok () -> ());
            (match Cluster.Router.flush_all router with
            | Error e -> failwith ("router flush: " ^ e)
            | Ok () -> ());
            match Cluster.Router.metrics router with
            | Error e -> failwith ("router metrics: " ^ e)
            | Ok _ -> ())
      in
      let result = Cluster.Router.finish router in
      List.iter Cluster.wait_local nodes;
      match result with
      | Error e -> failwith ("router finish: " ^ e)
      | Ok summaries -> (Cluster.merge summaries, ingest_s))

let accepted_rate (m : Frame.node_summary) seconds =
  float_of_int m.Frame.summary.Daemon.events_ingested /. seconds

let scaling profile stream =
  Common.heading
    (Printf.sprintf
       "Cluster scaling: 1 vs 2 serve nodes, fixed per-node queue capacity (%d)"
       capacity);
  (* median of three bursts per configuration: each burst forks fresh
     nodes, and one preempted window must not decide the figure *)
  let median names =
    let runs =
      List.init 3 (fun _ ->
          Cluster.with_local names (serve_node profile ~queue_capacity:capacity)
            (fun nodes -> route_burst nodes stream))
    in
    match List.sort (fun (_, a) (_, b) -> compare a b) runs with
    | [ _; mid; _ ] -> mid
    | _ -> assert false
  in
  let one, one_s = median [ "solo" ] in
  let two, two_s = median [ "alpha"; "beta" ] in
  let offered = Array.length stream in
  let row name (m : Frame.node_summary) seconds =
    let s = m.Frame.summary in
    [
      name;
      Printf.sprintf "%d" s.Daemon.events_ingested;
      Printf.sprintf "%d" s.Daemon.events_dropped;
      Printf.sprintf "%.0f" (accepted_rate m seconds);
    ]
  in
  let scale = accepted_rate two two_s /. accepted_rate one one_s in
  Adprom.Report.print
    ~header:[ "nodes"; "ingested"; "shed"; "accepted events/sec" ]
    [ row "1 (solo)" one one_s; row "2 (alpha+beta)" two two_s ];
  Printf.printf
    "%d events offered per run; 2-node aggregate accepted throughput = %.2fx 1-node\n"
    offered scale;
  (accepted_rate one one_s, accepted_rate two two_s, scale)

let run () =
  let profile, stream = workload () in
  let one_rate, two_rate, scale = scaling profile stream in
  let oc = open_out "BENCH_cluster.json" in
  Printf.fprintf oc
    "{\n\
    \  \"smoke\": %b,\n\
    \  \"events_per_sec_1node\": %.1f,\n\
    \  \"events_per_sec_2node\": %.1f,\n\
    \  \"cluster_scale_factor\": %.2f\n\
     }\n"
    !Common.smoke one_rate two_rate scale;
  close_out oc;
  Printf.printf "wrote BENCH_cluster.json\n"
