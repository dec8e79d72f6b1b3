type result = {
  assignment : int array;
  centroids : Matrix.t;
  inertia : float;
  iterations : int;
}

let squared_distance a b =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  !acc

(* k-means++: the first centroid is uniform; each next one is sampled
   proportionally to the squared distance to the closest chosen
   centroid. Each row keeps that distance, and only the newest centroid
   is folded in: [Float.min] returns one of its arguments, so the
   running minimum is the minimum over all chosen centroids, exactly. *)
let seed_centroids rng k rows =
  let n = Array.length rows in
  let chosen = Array.make k rows.(Rng.int rng n) in
  let nearest = Array.make n Float.max_float in
  for c = 1 to k - 1 do
    let newest = chosen.(c - 1) in
    Array.iteri (fun i p -> nearest.(i) <- Float.min nearest.(i) (squared_distance p newest)) rows;
    let total = Array.fold_left ( +. ) 0.0 nearest in
    let idx = if total <= 0.0 then Rng.int rng n else Rng.choose_weighted rng nearest in
    chosen.(c) <- rows.(idx)
  done;
  chosen

let cluster ~rng ~k data =
  let n, dim = Matrix.dims data in
  if k <= 0 then invalid_arg "Kmeans.cluster: k must be positive";
  if n = 0 then invalid_arg "Kmeans.cluster: no observations";
  let rows = Array.init n (Matrix.row data) in
  let k = min k n in
  let centroids = ref (seed_centroids rng k rows) in
  let assignment = Array.make n 0 in
  let assign () =
    let changed = ref false in
    for i = 0 to n - 1 do
      let dists = Array.map (fun c -> squared_distance rows.(i) c) !centroids in
      let best = Stats.argmin dists in
      if assignment.(i) <> best then begin
        assignment.(i) <- best;
        changed := true
      end
    done;
    !changed
  in
  let recompute () =
    let k' = Array.length !centroids in
    let sums = Array.init k' (fun _ -> Array.make dim 0.0) in
    let counts = Array.make k' 0 in
    for i = 0 to n - 1 do
      let c = assignment.(i) in
      counts.(c) <- counts.(c) + 1;
      for j = 0 to dim - 1 do
        sums.(c).(j) <- sums.(c).(j) +. rows.(i).(j)
      done
    done;
    Array.iteri
      (fun c count ->
        if count > 0 then
          !centroids.(c) <- Array.map (fun s -> s /. float_of_int count) sums.(c))
      counts
  in
  let iterations = ref 0 in
  let max_iterations = 200 in
  ignore (assign ());
  let continue = ref true in
  while !continue && !iterations < max_iterations do
    incr iterations;
    recompute ();
    continue := assign ()
  done;
  (* Compact away empty clusters so downstream code sees a dense range. *)
  let used = Array.make (Array.length !centroids) false in
  Array.iter (fun c -> used.(c) <- true) assignment;
  let remap = Array.make (Array.length !centroids) (-1) in
  let next = ref 0 in
  Array.iteri
    (fun c u ->
      if u then begin
        remap.(c) <- !next;
        incr next
      end)
    used;
  let kept = Array.of_list (List.filteri (fun c _ -> used.(c)) (Array.to_list !centroids)) in
  let assignment = Array.map (fun c -> remap.(c)) assignment in
  let inertia =
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. squared_distance rows.(i) kept.(assignment.(i))
    done;
    !acc
  in
  { assignment; centroids = Matrix.of_arrays kept; inertia; iterations = !iterations }
