external monotonic_ns : unit -> (int64[@unboxed])
  = "adprom_obs_monotonic_ns_byte" "adprom_obs_monotonic_ns"
[@@noalloc]
