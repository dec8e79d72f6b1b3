type t = {
  profile : Profile.t;
  engine : Scoring.t;  (* compiled once; the adaptive threshold lives here *)
  target_fp_rate : float;
  adjust_every : int;
  mutable seen : int;  (** windows since the last adjustment *)
  mutable confirmed_fp : int;  (** admin-confirmed false alarms since then *)
  mutable total_seen : int;
  mutable total_alarms : int;
}

let create ?(target_fp_rate = 0.01) ?(adjust_every = 200) profile =
  {
    profile;
    engine = Scoring.create profile;
    target_fp_rate;
    adjust_every;
    seen = 0;
    confirmed_fp = 0;
    total_seen = 0;
    total_alarms = 0;
  }

let threshold t = Scoring.threshold t.engine

let maybe_adapt t =
  if t.seen >= t.adjust_every then begin
    let recent_fp_rate = float_of_int t.confirmed_fp /. float_of_int t.seen in
    (* moving the threshold flushes the engine's verdict memo *)
    Scoring.set_threshold t.engine
      (Threshold.adaptive ~current:(Scoring.threshold t.engine) ~recent_fp_rate
         ~target_fp_rate:t.target_fp_rate);
    t.seen <- 0;
    t.confirmed_fp <- 0
  end

let classify t window =
  let verdict = Scoring.classify t.engine window in
  t.seen <- t.seen + 1;
  t.total_seen <- t.total_seen + 1;
  if verdict.Detector.flag <> Detector.Normal then t.total_alarms <- t.total_alarms + 1;
  maybe_adapt t;
  verdict

let report_false_positive t = t.confirmed_fp <- t.confirmed_fp + 1

let windows_seen t = t.total_seen
let alarms_raised t = t.total_alarms
