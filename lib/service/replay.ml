module Detector = Adprom.Detector
module Sessions = Adprom.Sessions

type outcome = {
  summary : Daemon.summary;
  seconds : float;
  metrics : Metrics.t;
  alerts : Alerts.t;
  events_tail : Adprom_obs.Log.event list;
}

let run daemon items =
  let t0 = Adprom_obs.Clock.monotonic_ns () in
  Array.iter (fun it -> ignore (Daemon.ingest_item daemon it)) items;
  let summary =
    Adprom_obs.Trace.with_span "daemon.drain" (fun () -> Daemon.drain daemon)
  in
  let seconds = Adprom_obs.Clock.elapsed_s t0 in
  {
    summary;
    seconds;
    metrics = Daemon.metrics daemon;
    alerts = Daemon.alerts daemon;
    events_tail = Daemon.recent_events daemon;
  }

let throughput o =
  if o.seconds > 0.0 then
    float_of_int o.summary.Daemon.events_ingested /. o.seconds
  else 0.0

type mismatch = {
  session : int;
  window_index : int;
  batch : Detector.flag option;  (* None: window missing on that side *)
  live : Detector.flag option;
}

let verify_against_batch profile stream summary =
  let batch_by_session = Sessions.demux stream in
  let mismatches = ref [] in
  List.iter
    (fun (r : Daemon.session_report) ->
      let batch_flags =
        (* deliberately the uncompiled specification path: a divergence
           in the live engine (interning, memo, ring) cannot hide behind
           the same bug on the batch side *)
        match List.assoc_opt r.Daemon.session batch_by_session with
        | Some trace ->
            let window = profile.Adprom.Profile.params.Adprom.Profile.window in
            List.map
              (fun w -> (Detector.reference_classify profile w).Detector.flag)
              (Adprom.Window.of_trace ~window trace)
        | None -> []
      in
      let live_flags = List.map (fun v -> v.Detector.flag) r.Daemon.verdicts in
      let rec cmp i b l =
        match (b, l) with
        | [], [] -> ()
        | bf :: b', lf :: l' ->
            if bf <> lf then
              mismatches :=
                {
                  session = r.Daemon.session;
                  window_index = i;
                  batch = Some bf;
                  live = Some lf;
                }
                :: !mismatches;
            cmp (i + 1) b' l'
        | bf :: b', [] ->
            mismatches :=
              { session = r.Daemon.session; window_index = i; batch = Some bf; live = None }
              :: !mismatches;
            cmp (i + 1) b' []
        | [], lf :: l' ->
            mismatches :=
              { session = r.Daemon.session; window_index = i; batch = None; live = Some lf }
              :: !mismatches;
            cmp (i + 1) [] l'
      in
      cmp 0 batch_flags live_flags)
    summary.Daemon.sessions;
  List.rev !mismatches

let mismatch_to_string m =
  let f = function Some fl -> Detector.flag_to_string fl | None -> "(missing)" in
  Printf.sprintf "session %d window %d: batch=%s live=%s" m.session m.window_index
    (f m.batch) (f m.live)
