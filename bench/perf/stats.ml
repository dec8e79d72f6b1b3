(* Clock and order statistics shared by the benchmark's modules. *)

let now_ns = Adprom_obs.Clock.monotonic_ns
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9
let ns_to_s ns = Int64.to_float ns *. 1e-9

(* [time f] is [f ()] and its wall time in seconds. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_since t0)

(* Interpolated quantile, [q] in [0, 1]; 0 for no samples, which is what
   a layer that did no work on a workload measures. *)
let quantile q xs = if Array.length xs = 0 then 0. else Mlkit.Stats.quantile xs q

let median xs = quantile 0.5 (Array.of_list xs)

(* First and third quartile by the "exclusive" method of Python's
   [statistics.quantiles(xs, n=4)], the rule the spread checks use. *)
let quartiles = function
  | [] -> (nan, nan)
  | [ x ] -> (x, x)
  | xs ->
      let a = Array.of_list (List.sort Float.compare xs) in
      let ld = Array.length a in
      let m = ld + 1 in
      let q i =
        let j = max 1 (min (ld - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
        /. 4.
      in
      (q 1, q 3)
