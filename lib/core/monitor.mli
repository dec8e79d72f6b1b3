(** Online monitoring with an adaptive threshold (Sec. IV-D: "the
    security administrator can change the detector's threshold over
    time to reduce the false positive rate when there are legitimate
    changes in the program behavior").

    A monitor wraps a trained profile — compiled once into a private
    {!Scoring} engine — and the administrator feeds back which alarms
    were false; every [adjust_every] windows the threshold moves toward
    the target false-positive rate (each move flushes the engine's
    verdict memo, so stale flags never survive an adaptation). *)

type t

val create : ?target_fp_rate:float -> ?adjust_every:int -> Profile.t -> t
(** Defaults: target 1%%, adjustment every 200 windows. *)

val threshold : t -> float
(** Current (possibly adapted) threshold. *)

val classify : t -> Window.t -> Detector.verdict
(** Classify under the current threshold and account the window. *)

val report_false_positive : t -> unit
(** Administrator feedback: the latest alarm was legitimate behaviour. *)

val windows_seen : t -> int
val alarms_raised : t -> int
