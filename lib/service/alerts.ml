module Detector = Adprom.Detector
module Audit = Adprom.Audit

type source =
  | Verdict of {
      window_index : int;
      verdict : Detector.verdict;
      explanation : Adprom.Scoring.explanation option;
      leak : string option;
          (* statically-known leak capability of the fired sink site,
             from the leakage summary (rendered atoms), when the daemon
             was given one *)
    }
  | Finding of Audit.finding
  | Query_verdict of {
      query_index : int;
      sql : string;
      verdict : Adprom_qsig.Engine.verdict;
    }

type axis = Sequence_axis | Query_axis

let axis_to_string = function
  | Sequence_axis -> "sequence"
  | Query_axis -> "query"

(* Tainted_file_command rides the sequence side: it comes from the same
   library-call instrumentation stream the HMM consumes, not from the
   SQL wire. *)
let axis_of_source = function
  | Verdict _ | Finding _ -> Sequence_axis
  | Query_verdict _ -> Query_axis

type fused = No_alarm | Sequence_only | Query_only | Both_axes

let fused_to_string = function
  | No_alarm -> "none"
  | Sequence_only -> "sequence"
  | Query_only -> "query"
  | Both_axes -> "both"

type incident = { seq : int; time : float; session : int; source : source }

type t = {
  mutex : Mutex.t;
  seq : int Atomic.t;
  mutable incidents_rev : incident list;
  clock : unit -> float;
}

let create ?(clock = Unix.gettimeofday) () =
  { mutex = Mutex.create (); seq = Atomic.make 0; incidents_rev = []; clock }

let record t ~session source =
  let incident =
    { seq = Atomic.fetch_and_add t.seq 1; time = t.clock (); session; source }
  in
  Mutex.lock t.mutex;
  t.incidents_rev <- incident :: t.incidents_rev;
  Mutex.unlock t.mutex

let record_verdict ?explanation ?leak t ~session ~window_index verdict =
  match verdict.Detector.flag with
  | Detector.Data_leak | Detector.Out_of_context ->
      record t ~session (Verdict { window_index; verdict; explanation; leak });
      true
  | Detector.Normal | Detector.Anomalous -> false

let record_finding t ~session finding = record t ~session (Finding finding)

let record_query_verdict t ~session ~query_index ~sql
    (verdict : Adprom_qsig.Engine.verdict) =
  if verdict.Adprom_qsig.Engine.anomalous then (
    record t ~session (Query_verdict { query_index; sql; verdict });
    true)
  else false

let incidents t =
  Mutex.lock t.mutex;
  let l = t.incidents_rev in
  Mutex.unlock t.mutex;
  List.sort (fun (a : incident) (b : incident) -> compare a.seq b.seq) l

let count t =
  Mutex.lock t.mutex;
  let n = List.length t.incidents_rev in
  Mutex.unlock t.mutex;
  n

let fused_axes t ~session =
  let seq_hit = ref false and query_hit = ref false in
  List.iter
    (fun (i : incident) ->
      if i.session = session then
        match axis_of_source i.source with
        | Sequence_axis -> seq_hit := true
        | Query_axis -> query_hit := true)
    (incidents t);
  match (!seq_hit, !query_hit) with
  | false, false -> No_alarm
  | true, false -> Sequence_only
  | false, true -> Query_only
  | true, true -> Both_axes

let source_to_string = function
  | Verdict { window_index; verdict; explanation; leak } ->
      Printf.sprintf "[sequence] %s window=%d score=%s%s%s%s"
        (Detector.flag_to_string verdict.Detector.flag)
        window_index
        (if Float.is_finite verdict.Detector.score then
           Printf.sprintf "%.3f" verdict.Detector.score
         else "-inf")
        (match verdict.Detector.unknown_pair with
        | Some (caller, sym) ->
            Printf.sprintf " (out of context: %s from %s)"
              (Analysis.Symbol.to_string sym) caller
        | None -> "")
        (match explanation with
        | Some e ->
            Printf.sprintf " [%s]" (Adprom.Scoring.explanation_to_string e)
        | None -> "")
        (match leak with
        | Some capability -> Printf.sprintf " leak-capable: %s" capability
        | None -> "")
  | Finding f ->
      Printf.sprintf "[%s] %s"
        (axis_to_string (axis_of_source (Finding f)))
        (Audit.finding_to_string f)
  | Query_verdict { query_index; sql; verdict } ->
      Printf.sprintf "[query] anomaly #%d %s: %s" query_index
        (Adprom_qsig.Engine.verdict_to_string verdict)
        sql

let incident_to_string (i : incident) =
  Printf.sprintf "#%-4d t=%.6f session=%d %s" i.seq i.time i.session
    (source_to_string i.source)

let to_string t =
  String.concat "\n" (List.map incident_to_string (incidents t))
