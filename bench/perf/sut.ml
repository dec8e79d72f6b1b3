(* The benchmark's one seam to the system under test.

   Every constructor and option of the monitoring daemon, the TCP serve
   node and the cluster router is named here and nowhere else in the
   benchmark, so a change to [Daemon.create]'s configuration touches
   exactly this file. No timing and no workload logic lives here: the
   callers decide what to measure and what to feed. *)

module Service = Adprom_service
module Daemon = Service.Daemon
module Server = Service.Server
module Cluster = Service.Cluster
module Alerts = Service.Alerts
module Transport = Service.Transport

(* What a trained monitor needs: the sequence profile, the program it
   was vetted against and, for database applications, the query
   profile that arms the query axis. *)
type system = {
  profile : Adprom.Profile.t;
  analysis : Analysis.Analyzer.t;
  qsig : Adprom_qsig.Profile.t option;
}

(* Both the query shapes a program prepares and the executed log with
   bound parameters and cardinalities, as the auditor learns them. *)
let learn_qsig (outcomes : Runtime.Interp.outcome list) =
  let p = Adprom_qsig.Profile.create () in
  List.iter
    (fun (o : Runtime.Interp.outcome) ->
      List.iter (Adprom_qsig.Profile.learn_shape p) o.Runtime.Interp.queries;
      Adprom_qsig.Profile.learn_log p o.Runtime.Interp.query_log)
    outcomes;
  p

let qsig_mode sys = if sys.qsig = None then Daemon.Qsig_off else Daemon.Qsig_warn

(* the policy [Qsig_warn] checks under, for reference engines *)
let qsig_policy = Adprom_qsig.Constraints.Flexible

(* Alerts stamped on the monotonic clock, so incident times compare
   with the load generator's send times, across processes too. *)
let alerts () =
  Alerts.create
    ~clock:(fun () -> Int64.to_float (Adprom_obs.Clock.monotonic_ns ()) *. 1e-9)
    ()

(* One worker shard: the acceptor plus one worker fit two cores. The
   static gates run in explain mode, so verdicts are those of an
   ungated engine while the gate work is still paid. *)
let daemon ?(keep_verdicts = false) ~queue_capacity ~alerts sys =
  Daemon.create ~shards:1 ~queue_capacity ~keep_verdicts ~alerts
    ~vet_against:sys.analysis ~static_gate:Daemon.Gate_explain
    ~qsig_mode:(qsig_mode sys) ?qsig_profile:sys.qsig
    ~qsig_static_gate:Daemon.Gate_explain sys.profile

(* [false] when the daemon refused the item (its session was shed). *)
let ingest d item =
  match Daemon.ingest_item d item with Daemon.Accepted -> true | Daemon.Rejected _ -> false

let drain = Daemon.drain

let counter metrics name =
  Service.Metrics.counter_value (Service.Metrics.counter metrics name)

let scorer_errors d = counter (Daemon.metrics d) "adprom_scorer_errors_total"

(* --- a forked serve node ------------------------------------------------- *)

(* What a node reports back over a pipe once its serve loop returned:
   its incidents with their monotonic record times, its error counters,
   and how far its resident set grew past what it inherited at fork. *)
type node_report = {
  incidents : (int * Alerts.source * float) list;
  scorer_errors : int;
  decode_errors : int;
  rss_growth_kb : int;
}

type node = { local : Cluster.local; report : Unix.file_descr }

let status_kb field =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:(field ^ ":") line ->
            Scanf.sscanf
              (String.sub line (String.length field + 1)
                 (String.length line - String.length field - 1))
              " %d" Fun.id
        | _ -> scan ()
        | exception End_of_file -> 0
      in
      scan ())

(* Fork a node serving [sys]; the caller must not have spawned domains
   yet (a multi-domain process must not fork). *)
let spawn_node ?(keep_verdicts = false) ~queue_capacity sys =
  let r, w = Unix.pipe ~cloexec:true () in
  let local =
    Cluster.spawn_local ~name:"node" (fun socket ->
        Unix.close r;
        let rss0 = status_kb "VmRSS" in
        let alerts = alerts () in
        let outcome =
          Server.serve ~socket ~name:"node" ~shards:1 ~queue_capacity
            ~keep_verdicts ~alerts ~vet_against:sys.analysis
            ~static_gate:Daemon.Gate_explain ~qsig_mode:(qsig_mode sys)
            ?qsig_profile:sys.qsig ~qsig_static_gate:Daemon.Gate_explain
            sys.profile
        in
        let metrics = outcome.Service.Replay.metrics in
        let report =
          {
            incidents =
              List.map
                (fun (i : Alerts.incident) ->
                  (i.Alerts.session, i.Alerts.source, i.Alerts.time))
                (Alerts.incidents alerts);
            scorer_errors = counter metrics "adprom_scorer_errors_total";
            decode_errors = counter metrics "adprom_wire_decode_errors_total";
            rss_growth_kb = status_kb "VmHWM" - rss0;
          }
        in
        let oc = Unix.out_channel_of_descr w in
        Marshal.to_channel oc report [];
        close_out oc)
  in
  Unix.close w;
  { local; report = r }

let connect node =
  Cluster.Router.connect
    [
      {
        Cluster.peer_name = node.local.Cluster.name;
        host = "127.0.0.1";
        port = node.local.Cluster.port;
      };
    ]

(* Read the node's report and reap it; call after [finish]. *)
let reap node =
  let ic = Unix.in_channel_of_descr node.report in
  let report =
    match (Marshal.from_channel ic : node_report) with
    | r -> Ok r
    | exception e -> Error e
  in
  close_in_noerr ic;
  Cluster.wait_local node.local;
  match report with Ok r -> r | Error e -> raise e

(* Stop a node that will never see a [Bye] (its router failed), unless
   it is already reaped. *)
let kill node =
  let quietly f = try f () with Unix.Unix_error _ -> () in
  quietly (fun () -> Unix.kill node.local.Cluster.pid Sys.sigkill);
  quietly (fun () -> Unix.close node.report);
  quietly (fun () -> ignore (Unix.waitpid [] node.local.Cluster.pid))

let send = Cluster.Router.send
let flush_all = Cluster.Router.flush_all
let router_metrics = Cluster.Router.metrics
let lost_items = Cluster.Router.lost_items

(* Finish the router and fold the node summaries into one. *)
let finish router =
  Result.map Cluster.merge (Cluster.Router.finish router)
