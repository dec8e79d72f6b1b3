type strategy =
  | Fixed of float
  | Min_margin of float
  | Quantile of float

let finite scores =
  Array.of_list (List.filter Float.is_finite (Array.to_list scores))

let select strategy validation_scores =
  match strategy with
  | Fixed t -> t
  | Min_margin margin ->
      let xs = finite validation_scores in
      if Array.length xs = 0 then -1e9
      else
        let lo, _ = Mlkit.Stats.min_max xs in
        lo -. margin
  | Quantile q ->
      if q < 0.0 || q > 1.0 then invalid_arg "Threshold.select: quantile out of range";
      let xs = finite validation_scores in
      if Array.length xs = 0 then -1e9 else Mlkit.Stats.quantile xs q

let adaptive ~current ~recent_fp_rate ~target_fp_rate =
  let magnitude = Float.max 1.0 (Float.abs current) in
  if recent_fp_rate > target_fp_rate then current -. (0.1 *. magnitude)
  else if recent_fp_rate < target_fp_rate /. 2.0 then current +. (0.02 *. magnitude)
  else current
