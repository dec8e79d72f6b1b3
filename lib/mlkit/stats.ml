let check_non_empty name xs = if Array.length xs = 0 then invalid_arg (name ^ ": empty array")

let mean xs =
  check_non_empty "Stats.mean" xs;
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let variance xs =
  check_non_empty "Stats.variance" xs;
  let m = mean xs in
  Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs
  /. float_of_int (Array.length xs)

let quantile xs q =
  check_non_empty "Stats.quantile" xs;
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = int_of_float (Float.ceil pos) in
  if lo = hi then sorted.(lo)
  else
    let w = pos -. float_of_int lo in
    ((1.0 -. w) *. sorted.(lo)) +. (w *. sorted.(hi))

let min_max xs =
  check_non_empty "Stats.min_max" xs;
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0))
    xs

let arg_best better xs =
  check_non_empty "Stats.argmax/argmin" xs;
  let best = ref 0 in
  for i = 1 to Array.length xs - 1 do
    if better xs.(i) xs.(!best) then best := i
  done;
  !best

let argmax xs = arg_best ( > ) xs
let argmin xs = arg_best ( < ) xs
