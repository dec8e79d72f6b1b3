type status = Healthy | Degraded | Unhealthy

let status_to_string = function
  | Healthy -> "ok"
  | Degraded -> "degraded"
  | Unhealthy -> "unhealthy"

let status_to_int = function Healthy -> 0 | Degraded -> 1 | Unhealthy -> 2
let status_of_int = function 0 -> Some Healthy | 1 -> Some Degraded | 2 -> Some Unhealthy | _ -> None

(* worse-of for folding per-node statuses into a fleet status *)
let worst a b = if status_to_int a >= status_to_int b then a else b

let shed_degraded = 0.01  (* dropped/offered ratio *)
let shed_unhealthy = 0.10
let queue_hwm_frac = 0.9  (* high-watermark / capacity *)
let e2e_p99_slo = 1.0  (* seconds *)

type report = {
  status : status;
  reasons : string list;  (* one per tripped threshold, empty when ok *)
  shed_rate : float;
  queue_depth : int;  (* sum of the per-shard depth gauges *)
  queue_hwm : int;  (* max per-shard high-watermark *)
  queue_capacity : int;
  scorer_errors : int;
  e2e_p50 : float;
  e2e_p99 : float;  (* nan until the first verdict *)
}

let is_depth_gauge name = String.starts_with ~prefix:"adprom_queue_depth_shard" name

let queue (s : Metrics.snapshot) =
  List.fold_left
    (fun (d, m) (name, v, hwm) ->
      if is_depth_gauge name then (d + v, max m hwm) else (d, m))
    (0, 0) s.Metrics.gauges

let e2e_quantiles s =
  match Metrics.snapshot_histogram s "adprom_e2e_latency_seconds" with
  | Some hs -> (Metrics.hist_quantile hs 0.5, Metrics.hist_quantile hs 0.99)
  | None -> (nan, nan)

let evaluate ~queue_capacity (s : Metrics.snapshot) =
  let offered = Metrics.snapshot_counter s "adprom_events_offered_total" in
  let dropped = Metrics.snapshot_counter s "adprom_events_dropped_total" in
  let scorer_errors = Metrics.snapshot_counter s "adprom_scorer_errors_total" in
  let shed_rate =
    if offered = 0 then 0.0 else float_of_int dropped /. float_of_int offered
  in
  let queue_depth, queue_hwm = queue s in
  let e2e_p50, e2e_p99 = e2e_quantiles s in
  let checks =
    [
      ( shed_rate >= shed_unhealthy,
        Unhealthy,
        Printf.sprintf "shed rate %.1f%% >= %.1f%%" (100. *. shed_rate)
          (100. *. shed_unhealthy) );
      ( shed_rate >= shed_degraded,
        Degraded,
        Printf.sprintf "shed rate %.1f%% >= %.1f%%" (100. *. shed_rate)
          (100. *. shed_degraded) );
      ( queue_capacity > 0
        && float_of_int queue_hwm
           >= queue_hwm_frac *. float_of_int queue_capacity,
        Degraded,
        Printf.sprintf "queue high-watermark %d >= %.0f%% of capacity %d"
          queue_hwm
          (100. *. queue_hwm_frac)
          queue_capacity );
      ( scorer_errors > 0,
        Degraded,
        Printf.sprintf "%d scorer error(s)" scorer_errors );
      ( (not (Float.is_nan e2e_p99)) && e2e_p99 > e2e_p99_slo,
        Degraded,
        Printf.sprintf "e2e p99 %gs over the %gs SLO" e2e_p99
          e2e_p99_slo );
    ]
  in
  let status, reasons =
    List.fold_left
      (fun (st, rs) (tripped, level, reason) ->
        if tripped then (worst st level, reason :: rs) else (st, rs))
      (Healthy, []) checks
  in
  (* the unhealthy shed check subsumes the degraded one: keep the
     stronger reason only *)
  let reasons =
    match List.rev reasons with
    | a :: b :: rest
      when status = Unhealthy
           && String.length a >= 9
           && String.sub a 0 9 = "shed rate"
           && String.length b >= 9
           && String.sub b 0 9 = "shed rate" ->
        a :: rest
    | rs -> rs
  in
  {
    status;
    reasons;
    shed_rate;
    queue_depth;
    queue_hwm;
    queue_capacity;
    scorer_errors;
    e2e_p50;
    e2e_p99;
  }

let quantile_json f =
  (* healthz consumers get null, not the non-JSON "nan" token *)
  if Float.is_nan f then "null"
  else if f = infinity then Adprom_obs.Json.string "+Inf"
  else Printf.sprintf "%g" f

let report_to_json ~node ~uptime_s r =
  let module J = Adprom_obs.Json in
  J.obj
    [
      ("node", J.string node);
      ("status", J.string (status_to_string r.status));
      ( "reasons",
        "[" ^ String.concat "," (List.map J.string r.reasons) ^ "]" );
      ("uptime_seconds", Printf.sprintf "%.3f" uptime_s);
      ("shed_rate", Printf.sprintf "%.6f" r.shed_rate);
      ("queue_depth", string_of_int r.queue_depth);
      ("queue_high_watermark", string_of_int r.queue_hwm);
      ("queue_capacity", string_of_int r.queue_capacity);
      ("scorer_errors", string_of_int r.scorer_errors);
      ( "e2e_latency_seconds",
        J.obj
          [ ("p50", quantile_json r.e2e_p50); ("p99", quantile_json r.e2e_p99) ]
      );
    ]
