external monotonic_ns : unit -> (int64[@unboxed])
  = "adprom_obs_monotonic_ns_byte" "adprom_obs_monotonic_ns"
[@@noalloc]

let elapsed_s t0 = Int64.to_float (Int64.sub (monotonic_ns ()) t0) /. 1e9
