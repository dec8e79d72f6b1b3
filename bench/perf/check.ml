(* Correctness gates. A run whose outputs fail any of them reports
   [correct: false] and exits non-zero. *)

module W = Workload
module Daemon = Sut.Daemon
module Alerts = Sut.Alerts

type gate = { gate : string; ok : bool; detail : string }

let gate name ok detail = { gate = name; ok; detail }

let verdict_key (v : Adprom.Detector.verdict) =
  ( v.Adprom.Detector.flag,
    Int64.bits_of_float v.Adprom.Detector.score,
    v.Adprom.Detector.unknown_symbol,
    v.Adprom.Detector.unknown_pair )

type key =
  int
  * int
  * int
  * Adprom.Detector.flag
  * (Adprom.Detector.flag * int64 * bool * (string * Analysis.Symbol.t) option) list
  * int
  * int

(* A session report as a comparable value, verdict score bits included
   (empty verdicts when the daemon ran without keeping them). *)
let session_key (r : Daemon.session_report) : key =
  ( r.Daemon.session,
    r.Daemon.events,
    r.Daemon.windows,
    r.Daemon.worst,
    List.map verdict_key r.Daemon.verdicts,
    r.Daemon.qsig_checks,
    r.Daemon.qsig_anomalies )

let session_keys (s : Daemon.summary) = List.map session_key s.Daemon.sessions

(* Reports of a run that kept no verdicts compare on everything else. *)
let without_verdicts keys =
  List.map (fun (s, e, w, worst, _, q, qa) -> (s, e, w, worst, [], q, qa)) keys

(* The incident multiset in its stable rendering, as a node ships it. *)
let multiset (incidents : (int * string) list) = List.sort compare incidents

let rendered (incidents : Alerts.incident list) =
  multiset
    (List.map
       (fun (i : Alerts.incident) -> (i.Alerts.session, Alerts.source_to_string i.Alerts.source))
       incidents)

let window (sys : Sut.system) = sys.Sut.profile.Adprom.Profile.params.Adprom.Profile.window

(* Every distinct window of the stream, in first-seen order. *)
let distinct_windows (st : W.stream) sys =
  let seen = Hashtbl.create 4096 and out = ref [] in
  Array.iter
    (fun (s : W.session) ->
      List.iter
        (fun w ->
          if not (Hashtbl.mem seen w) then begin
            Hashtbl.replace seen w ();
            out := w :: !out
          end)
        (Adprom.Window.of_trace ~window:(window sys) s.W.calls))
    st.W.sessions;
  List.rev !out

(* The compiled engine scores every distinct window exactly like the
   uncompiled specification: same flag, same score bits. *)
let reference_windows sys windows =
  let engine = Adprom.Scoring.create sys.Sut.profile in
  let bad =
    List.filter
      (fun w ->
        verdict_key (Adprom.Scoring.classify engine w)
        <> verdict_key (Adprom.Detector.reference_classify sys.Sut.profile w))
      windows
  in
  gate "windows = Detector.reference_classify" (bad = [])
    (Printf.sprintf "%d distinct windows, %d differ" (List.length windows) (List.length bad))

(* Live verdicts of every session equal the compiled batch loop on the
   session's own trace; with [reference_windows] this makes every live
   verdict the specification's. *)
let live_equals_batch (st : W.stream) sys (summary : Daemon.summary) =
  let engine = Adprom.Scoring.create sys.Sut.profile in
  let by_id = Hashtbl.create 4096 in
  List.iter (fun (r : Daemon.session_report) -> Hashtbl.replace by_id r.Daemon.session r)
    summary.Daemon.sessions;
  let bad =
    Array.fold_left
      (fun bad (s : W.session) ->
        let expected =
          List.map (fun (_, v) -> verdict_key v) (Adprom.Scoring.monitor engine s.W.calls)
        in
        let live =
          match Hashtbl.find_opt by_id s.W.id with
          | Some r -> List.map verdict_key r.Daemon.verdicts
          | None -> []
        in
        if expected = live then bad else bad + 1)
      0 st.W.sessions
  in
  gate "live verdicts = batch monitor" (bad = 0)
    (Printf.sprintf "%d sessions, %d differ" (Array.length st.W.sessions) bad)

(* [Replay.verify_against_batch] itself — the uncompiled path over
   every window — on every attack session and one normal session in
   forty: the full stream would cost minutes. *)
let verify_sample (st : W.stream) sys (summary : Daemon.summary) =
  let keep (s : W.session) = s.W.attack <> None || s.W.id mod 40 = 0 in
  let ids = Hashtbl.create 256 in
  Array.iter (fun s -> if keep s then Hashtbl.replace ids s.W.id ()) st.W.sessions;
  let events =
    Array.of_list
      (List.filter_map
         (function
           | Sut.Transport.Call e when Hashtbl.mem ids e.Sut.Transport.session -> Some e
           | _ -> None)
         (Array.to_list st.W.items))
  in
  let sub =
    {
      summary with
      Daemon.sessions =
        List.filter
          (fun (r : Daemon.session_report) -> Hashtbl.mem ids r.Daemon.session)
          summary.Daemon.sessions;
    }
  in
  let mismatches = Adprom_service.Replay.verify_against_batch sys.Sut.profile events sub in
  gate "Replay.verify_against_batch (sample)" (mismatches = [])
    (Printf.sprintf "%d sessions, %d mismatching windows" (Hashtbl.length ids)
       (List.length mismatches))

(* Query-axis verdicts equal [Engine.check_log] on each session's log,
   both the per-session counts and the incidents' rendered verdicts. *)
let qsig_equals_check_log (st : W.stream) sys (summary : Daemon.summary)
    (incidents : Alerts.incident list) =
  match sys.Sut.qsig with
  | None -> gate "qsig = Engine.check_log" true "query axis off"
  | Some qp ->
      let engine = Adprom_qsig.Engine.create ~policy:Sut.qsig_policy qp in
      let reports = Hashtbl.create 4096 in
      List.iter (fun (r : Daemon.session_report) -> Hashtbl.replace reports r.Daemon.session r)
        summary.Daemon.sessions;
      let live = Hashtbl.create 256 in
      List.iter
        (fun (i : Alerts.incident) ->
          match i.Alerts.source with
          | Alerts.Query_verdict { query_index; verdict; _ } ->
              Hashtbl.add live i.Alerts.session
                (query_index, Adprom_qsig.Engine.verdict_to_string verdict)
          | Alerts.Verdict _ | Alerts.Finding _ -> ())
        incidents;
      let checked = ref 0 in
      let bad =
        Array.fold_left
          (fun bad (s : W.session) ->
            let verdicts = Adprom_qsig.Engine.check_log engine s.W.queries in
            checked := !checked + List.length verdicts;
            let anomalous =
              List.concat
                (List.mapi
                   (fun i (v : Adprom_qsig.Engine.verdict) ->
                     if v.Adprom_qsig.Engine.anomalous then
                       [ (i, Adprom_qsig.Engine.verdict_to_string v) ]
                     else [])
                   verdicts)
            in
            let counts_ok =
              match Hashtbl.find_opt reports s.W.id with
              | Some r ->
                  r.Daemon.qsig_checks = List.length verdicts
                  && r.Daemon.qsig_anomalies = List.length anomalous
              | None -> verdicts = []
            in
            let seen = List.sort compare (Hashtbl.find_all live s.W.id) in
            if counts_ok && seen = anomalous then bad else bad + 1)
          0 st.W.sessions
      in
      gate "qsig = Engine.check_log" (bad = 0)
        (Printf.sprintf "%d queries, %d sessions differ" !checked bad)

(* Every timed rep saw exactly the validation pass's incidents and
   session reports on the sessions it kept. A paced rep whose queue
   overflowed sheds whole sessions — the daemon's documented overload
   behaviour, counted in [failed] — so those sessions leave both sides. *)
let reps_equal ~incidents ~keys (reps : ((int * string) list * key list * int list) list) =
  let bad =
    List.length
      (List.filter
         (fun (inc, k, shed) ->
           let kept s = not (List.mem s shed) in
           let kept_incidents = List.filter (fun (s, _) -> kept s) in
           let kept_keys = List.filter (fun ((s, _, _, _, _, _, _) : key) -> kept s) in
           kept_incidents inc <> kept_incidents incidents
           || without_verdicts k <> without_verdicts (kept_keys keys))
         reps)
  in
  let shed = List.fold_left (fun a (_, _, s) -> a + List.length s) 0 reps in
  gate "timed reps = validation pass" (bad = 0)
    (Printf.sprintf "%d reps, %d differ; %d incidents each; %d sessions shed" (List.length reps) bad
       (List.length incidents) shed)

let print gates =
  List.iter
    (fun g -> Printf.printf "  [%s] %-38s %s\n" (if g.ok then "ok" else "FAIL") g.gate g.detail)
    gates
