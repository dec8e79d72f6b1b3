type confusion = { tp : int; tn : int; fp : int; fn : int }

let empty = { tp = 0; tn = 0; fp = 0; fn = 0 }

let merge a b = { tp = a.tp + b.tp; tn = a.tn + b.tn; fp = a.fp + b.fp; fn = a.fn + b.fn }

let observe c ~anomalous ~flagged =
  match (anomalous, flagged) with
  | true, true -> { c with tp = c.tp + 1 }
  | true, false -> { c with fn = c.fn + 1 }
  | false, true -> { c with fp = c.fp + 1 }
  | false, false -> { c with tn = c.tn + 1 }

let ratio num denom = if denom = 0 then 0.0 else float_of_int num /. float_of_int denom

let fp_rate c = ratio c.fp (c.fp + c.tn)
let fn_rate c = ratio c.fn (c.fn + c.tp)
let precision c = ratio c.tp (c.tp + c.fp)
let recall c = ratio c.tp (c.tp + c.fn)
let accuracy c = ratio (c.tp + c.tn) (c.tp + c.tn + c.fp + c.fn)
let total c = c.tp + c.tn + c.fp + c.fn

let curve ~normal_scores ~anomalous_scores ~thresholds =
  let flagged_below t scores =
    Array.fold_left (fun acc s -> if s < t then acc + 1 else acc) 0 scores
  in
  Array.to_list thresholds
  |> List.map (fun t ->
         let fp = flagged_below t normal_scores in
         let tn = Array.length normal_scores - fp in
         let tp = flagged_below t anomalous_scores in
         let fn = Array.length anomalous_scores - tp in
         let c = { tp; tn; fp; fn } in
         (t, fp_rate c, fn_rate c))

let sweep_thresholds ~normal_scores ~anomalous_scores count =
  let finite =
    Array.of_list
      (List.filter Float.is_finite
         (Array.to_list normal_scores @ Array.to_list anomalous_scores))
  in
  if Array.length finite = 0 then Array.init count (fun i -> float_of_int i)
  else
    let lo, hi = Mlkit.Stats.min_max finite in
    let span = Float.max 1e-6 (hi -. lo) in
    let lo = lo -. (0.05 *. span) and hi = hi +. (0.05 *. span) in
    Array.init count (fun i ->
        lo +. ((hi -. lo) *. float_of_int i /. float_of_int (max 1 (count - 1))))

let kfold ~k xs =
  if k < 2 then invalid_arg "Evaluation.kfold: k must be at least 2";
  let indexed = List.mapi (fun i x -> (i, x)) xs in
  List.init k (fun fold ->
      let valid = List.filter_map (fun (i, x) -> if i mod k = fold then Some x else None) indexed in
      let train = List.filter_map (fun (i, x) -> if i mod k <> fold then Some x else None) indexed in
      (train, valid))
