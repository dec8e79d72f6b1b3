(** Monotonic time for span durations. Wall-clock time
    ([Unix.gettimeofday]) jumps under NTP adjustment; span intervals
    must not. *)

external monotonic_ns : unit -> (int64[@unboxed])
  = "adprom_obs_monotonic_ns_byte" "adprom_obs_monotonic_ns"
[@@noalloc]
(** Nanoseconds on a monotonic clock with an arbitrary epoch. Declared
    [external] here so that a caller outside this library calls the
    native stub directly: the reading stays unboxed and allocates
    nothing. *)

val elapsed_s : int64 -> float
(** Seconds on the monotonic clock since [t0], an earlier
    {!monotonic_ns} reading. *)
