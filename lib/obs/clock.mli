(** Monotonic time for span durations. Wall-clock time
    ([Unix.gettimeofday]) jumps under NTP adjustment; span intervals
    must not. *)

val monotonic_ns : unit -> int64
(** Nanoseconds on a monotonic clock with an arbitrary epoch. The
    native call is allocation-free. *)
