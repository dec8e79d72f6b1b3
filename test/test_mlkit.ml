(* Unit and property tests for the mlkit substrate: RNG, matrices,
   statistics, PCA and k-means. *)

module Rng = Mlkit.Rng
module Matrix = Mlkit.Matrix
module Stats = Mlkit.Stats
module Pca = Mlkit.Pca
module Kmeans = Mlkit.Kmeans

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose = Alcotest.(check (float 1e-6))

(* --- rng --------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  let xs = List.init 100 (fun _ -> Rng.int a 1000) in
  let ys = List.init 100 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_rng_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done;
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "float out of bounds: %f" v
  done

let test_rng_split_independent () =
  let rng = Rng.create 11 in
  let child = Rng.split rng in
  let xs = List.init 50 (fun _ -> Rng.int rng 100) in
  let ys = List.init 50 (fun _ -> Rng.int child 100) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_invalid () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick rng [||]))

let test_rng_weighted () =
  let rng = Rng.create 5 in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let i = Rng.choose_weighted rng [| 1.0; 2.0; 7.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "weight ordering respected" true
    (counts.(2) > counts.(1) && counts.(1) > counts.(0));
  let p2 = float_of_int counts.(2) /. 30_000.0 in
  Alcotest.(check bool) "heaviest near 0.7" true (Float.abs (p2 -. 0.7) < 0.03)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 9 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_gaussian_moments () =
  let rng = Rng.create 13 in
  let xs = Array.init 50_000 (fun _ -> Rng.gaussian rng) in
  Alcotest.(check bool) "mean near 0" true (Float.abs (Stats.mean xs) < 0.02);
  Alcotest.(check bool) "stddev near 1" true (Float.abs (sqrt (Stats.variance xs) -. 1.0) < 0.02)

(* --- matrix ------------------------------------------------------------ *)

let test_matrix_basic () =
  let m = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  check_float "get" 3.0 (Matrix.get m 1 0);
  Matrix.set m 1 0 9.0;
  check_float "set" 9.0 (Matrix.get m 1 0);
  Alcotest.(check (pair int int)) "dims" (2, 2) (Matrix.dims m)

let test_matrix_identity_mul () =
  let m = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check bool) "I * m = m" true (Matrix.equal (Matrix.mul (Matrix.identity 2) m) m);
  Alcotest.(check bool) "m * I = m" true (Matrix.equal (Matrix.mul m (Matrix.identity 2)) m)

let test_matrix_mul_known () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Matrix.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let expected = Matrix.of_arrays [| [| 19.0; 22.0 |]; [| 43.0; 50.0 |] |] in
  Alcotest.(check bool) "2x2 product" true (Matrix.equal (Matrix.mul a b) expected)

let test_matrix_errors () =
  let m = Matrix.create 2 2 in
  Alcotest.check_raises "oob get" (Invalid_argument "Matrix.get: out of bounds") (fun () ->
      ignore (Matrix.get m 2 0));
  Alcotest.check_raises "ragged" (Invalid_argument "Matrix.of_arrays: ragged rows")
    (fun () -> ignore (Matrix.of_arrays [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

(* --- stats ------------------------------------------------------------- *)

let test_stats_basic () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (Stats.mean xs);
  check_float "variance" 1.25 (Stats.variance xs);
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "min max" (1.0, 4.0) (Stats.min_max xs)

let test_stats_quantile () =
  let xs = [| 4.0; 1.0; 3.0; 2.0 |] in
  check_float "median" 2.5 (Stats.quantile xs 0.5);
  check_float "min" 1.0 (Stats.quantile xs 0.0);
  check_float "max" 4.0 (Stats.quantile xs 1.0)

let test_stats_argminmax () =
  Alcotest.(check int) "argmax" 2 (Stats.argmax [| 1.0; 0.0; 5.0; 5.0 |]);
  Alcotest.(check int) "argmin" 1 (Stats.argmin [| 1.0; 0.0; 5.0 |])

(* --- pca --------------------------------------------------------------- *)

let test_pca_jacobi_known () =
  let m = Matrix.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 2.0 |] |] in
  let values, vectors = Pca.jacobi_eigen m in
  check_float_loose "largest eigenvalue" 3.0 values.(0);
  check_float_loose "second eigenvalue" 1.0 values.(1);
  let v0 = Matrix.row vectors 0 in
  let mv = Matrix.col (Matrix.mul m (Matrix.init 2 1 (fun i _ -> v0.(i)))) 0 in
  Array.iteri
    (fun i x -> check_float_loose (Printf.sprintf "Mv = 3v [%d]" i) (3.0 *. v0.(i)) x)
    mv

let test_pca_recovers_principal_axis () =
  let rng = Rng.create 21 in
  let rows =
    Array.init 200 (fun _ ->
        let t = Rng.gaussian rng *. 10.0 in
        let noise = Rng.gaussian rng *. 0.1 in
        [| t +. noise; t -. noise |])
  in
  let model = Pca.fit ~variance_kept:0.9 (Matrix.of_arrays rows) in
  let axis = Matrix.row model.Pca.components 0 in
  let alignment = Float.abs ((axis.(0) +. axis.(1)) /. sqrt 2.0) in
  Alcotest.(check bool) "first axis is the diagonal" true (alignment > 0.999);
  Alcotest.(check int) "one component kept" 1 (fst (Matrix.dims model.Pca.components))

let test_pca_transform_shape () =
  let rng = Rng.create 2 in
  let rows = Array.init 40 (fun _ -> Array.init 6 (fun _ -> Rng.float rng 1.0)) in
  let model, projected = Pca.fit_transform ~variance_kept:0.99 (Matrix.of_arrays rows) in
  let n, k = Matrix.dims projected in
  Alcotest.(check int) "rows preserved" 40 n;
  Alcotest.(check bool) "dimension reduced or equal" true (k <= 6);
  let ev = model.Pca.eigenvalues in
  Alcotest.(check int) "one eigenvalue per component" k (Array.length ev);
  Alcotest.(check bool) "variances positive and descending" true
    (Array.for_all (fun x -> x > 0.0) ev
    && ev = Array.of_list (List.sort (Fun.flip compare) (Array.to_list ev)))

let prop_jacobi_reconstructs =
  QCheck2.Test.make ~name:"jacobi: eigenvalues sum to the trace" ~count:50
    QCheck2.Gen.(array_size (pure 9) (float_range (-5.0) 5.0))
    (fun data ->
      let m = Matrix.init 3 3 (fun i j -> (data.((i * 3) + j) +. data.((j * 3) + i)) /. 2.0) in
      let values, _ = Pca.jacobi_eigen m in
      let trace = Matrix.get m 0 0 +. Matrix.get m 1 1 +. Matrix.get m 2 2 in
      Float.abs (Array.fold_left ( +. ) 0.0 values -. trace) < 1e-6)

(* The Jacobi routine as it stood, with V kept untransposed and every
   access bounds-checked: the oracle [Pca.jacobi_eigen] must match bit
   for bit. *)
let reference_jacobi_eigen m =
  let n, _ = Matrix.dims m in
  let a = Array.init n (Matrix.row m) in
  let v = Array.init n (fun i -> Array.init n (fun j -> if i = j then 1.0 else 0.0)) in
  let off_diagonal_mass () =
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        acc := !acc +. (a.(i).(j) *. a.(i).(j))
      done
    done;
    !acc
  in
  let rotate p q =
    if Float.abs a.(p).(q) > 1e-14 then begin
      let theta = (a.(q).(q) -. a.(p).(p)) /. (2.0 *. a.(p).(q)) in
      let t =
        let sign = if theta >= 0.0 then 1.0 else -1.0 in
        sign /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.0))
      in
      let c = 1.0 /. sqrt ((t *. t) +. 1.0) in
      let s = t *. c in
      for k = 0 to n - 1 do
        let akp = a.(k).(p) and akq = a.(k).(q) in
        a.(k).(p) <- (c *. akp) -. (s *. akq);
        a.(k).(q) <- (s *. akp) +. (c *. akq)
      done;
      for k = 0 to n - 1 do
        let apk = a.(p).(k) and aqk = a.(q).(k) in
        a.(p).(k) <- (c *. apk) -. (s *. aqk);
        a.(q).(k) <- (s *. apk) +. (c *. aqk)
      done;
      for k = 0 to n - 1 do
        let vkp = v.(k).(p) and vkq = v.(k).(q) in
        v.(k).(p) <- (c *. vkp) -. (s *. vkq);
        v.(k).(q) <- (s *. vkp) +. (c *. vkq)
      done
    end
  in
  let sweep = ref 0 in
  while off_diagonal_mass () > 1e-18 && !sweep < 100 do
    incr sweep;
    for p = 0 to n - 1 do
      for q = p + 1 to n - 1 do
        rotate p q
      done
    done
  done;
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> compare a.(j).(j) a.(i).(i)) order;
  let values = Array.map (fun i -> a.(i).(i)) order in
  let vectors = Matrix.init n n (fun r c -> v.(c).(order.(r))) in
  (values, vectors)

let same_floats xs ys =
  Array.length xs = Array.length ys
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       xs ys

(* Random symmetric matrices, n in 0..12, some with all-zero rows (and
   the matching columns) and some with exact-zero off-diagonal pairs,
   whose rotation the sweep skips. *)
let prop_jacobi_matches_reference =
  QCheck2.Test.make ~name:"jacobi = untransposed reference, bit for bit" ~count:200
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 0 12))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let zero = Array.init n (fun _ -> Rng.float rng 1.0 < 0.2) in
      let raw = Array.init (n * n) (fun _ -> Rng.float rng 10.0 -. 5.0) in
      let skip = Array.init (n * n) (fun _ -> Rng.float rng 1.0 < 0.3) in
      let m =
        Matrix.init n n (fun i j ->
            if zero.(i) || zero.(j) || (i <> j && skip.(min i j * n + max i j)) then 0.0
            else (raw.((i * n) + j) +. raw.((j * n) + i)) /. 2.0)
      in
      let values, vectors = Pca.jacobi_eigen m in
      let values', vectors' = reference_jacobi_eigen m in
      same_floats values values' && same_floats vectors.Matrix.data vectors'.Matrix.data)

(* A random matrix from [(seed, rows, cols)]: some rows copies of
   earlier ones and some columns all zero. Row 1 is always fresh, so
   only all-zero data has no spread. *)
let random_data (seed, rows, cols) =
  let rng = Rng.create seed in
  let zero = Array.init cols (fun _ -> Rng.float rng 1.0 < 0.2) in
  let data = Array.make rows [||] in
  for i = 0 to rows - 1 do
    data.(i) <-
      (if i > 1 && Rng.float rng 1.0 < 0.25 then Array.copy data.(Rng.int rng i)
       else Array.init cols (fun j -> if zero.(j) then 0.0 else Rng.float rng 1.0))
  done;
  let variance_kept = [| 0.5; 0.8; 0.9; 0.95; 0.99 |].(Rng.int rng 5) in
  (variance_kept, Matrix.of_arrays data)

(* Both solvers stop once the off-diagonal mass is below 1e-18, so an
   axis is accurate to about 1e-9 over its eigen-gap: projected
   distances agree to 1e-6 of the largest (the worst of 20000 cases was
   2.6e-8), eigenvalues to 1e-9 of the largest. *)
let prop_gram_fit_matches_covariance =
  QCheck2.Test.make ~name:"fit = covariance-side oracle, wide and tall data" ~count:200
    ~print:QCheck2.Print.(triple int int int)
    QCheck2.Gen.(triple (int_range 0 1_000_000) (int_range 2 10) (int_range 1 30))
    (fun params ->
      let variance_kept, data = random_data params in
      let model = Pca.fit ~variance_kept data in
      let oracle = Pca_oracle.fit ~variance_kept data in
      let keep = Array.length oracle.Pca.eigenvalues in
      let scale = oracle.Pca.eigenvalues.(0) in
      let d = Pca_oracle.pairwise_sq_distances (Pca.transform model data) in
      let d' = Pca_oracle.pairwise_sq_distances (Pca.transform oracle data) in
      let spread = Array.fold_left Float.max 0.0 d' in
      Array.length model.Pca.eigenvalues = keep
      && Array.for_all2
           (fun x y -> Float.abs (x -. y) <= 1e-9 *. scale)
           model.Pca.eigenvalues oracle.Pca.eigenvalues
      && Array.for_all2 (fun x y -> Float.abs (x -. y) <= (1e-6 *. spread) +. 1e-15) d d')

(* [Pca.transform] as it stood: each coordinate sums
   [(x_ij - mean_j) * axis_cj] over the features in order. *)
let reference_transform model data =
  let rows, cols = Matrix.dims data in
  let k, _ = Matrix.dims model.Pca.components in
  Matrix.init rows k (fun i c ->
      let acc = ref 0.0 in
      for j = 0 to cols - 1 do
        let x = Matrix.get data i j -. model.Pca.mean.(j) in
        acc := !acc +. (x *. Matrix.get model.Pca.components c j)
      done;
      !acc)

(* [fit_transform] projects the centred rows [fit] built, and
   [transform] centres the data again: both must give the reference's
   projection bit for bit, from the model [fit] gives. *)
let prop_fit_transform_matches_transform =
  QCheck2.Test.make ~name:"fit_transform = transform of fit, bit for bit" ~count:200
    ~print:QCheck2.Print.(triple int int int)
    QCheck2.Gen.(triple (int_range 0 1_000_000) (int_range 1 10) (int_range 1 30))
    (fun params ->
      let variance_kept, data = random_data params in
      let model, projected = Pca.fit_transform ~variance_kept data in
      let fitted = Pca.fit ~variance_kept data in
      let expected = reference_transform fitted data in
      let transformed = Pca.transform fitted data in
      same_floats model.Pca.components.Matrix.data fitted.Pca.components.Matrix.data
      && Matrix.dims projected = Matrix.dims expected
      && Matrix.dims transformed = Matrix.dims expected
      && same_floats projected.Matrix.data expected.Matrix.data
      && same_floats transformed.Matrix.data expected.Matrix.data)

(* Variances 18, 2, 2 and 0.02 (over rows - 1) along the axes of a
   4 x 4 Hadamard rotation: 85% of the variance is reached after two
   axes, inside the tie, so the whole tie is kept, whether the data is
   tall (8 x 4) or padded with zero columns to be wide (8 x 12). *)
let test_pca_cut_inside_tie () =
  let points =
    [|
      [| 3.0; 0.0; 0.0; 0.0 |]; [| -3.0; 0.0; 0.0; 0.0 |];
      [| 0.0; 1.0; 0.0; 0.0 |]; [| 0.0; -1.0; 0.0; 0.0 |];
      [| 0.0; 0.0; 1.0; 0.0 |]; [| 0.0; 0.0; -1.0; 0.0 |];
      [| 0.0; 0.0; 0.0; 0.1 |]; [| 0.0; 0.0; 0.0; -0.1 |];
    |]
  in
  let h =
    [| [| 1.; 1.; 1.; 1. |]; [| 1.; -1.; 1.; -1. |]; [| 1.; 1.; -1.; -1. |]; [| 1.; -1.; -1.; 1. |] |]
  in
  let rotate p pad =
    Array.init (4 + pad) (fun j ->
        if j >= 4 then 0.0
        else Array.fold_left ( +. ) 0.0 (Array.mapi (fun k x -> x *. h.(k).(j) /. 2.0) p))
  in
  List.iter
    (fun pad ->
      let data = Matrix.of_arrays (Array.map (fun p -> rotate p pad) points) in
      let model = Pca.fit ~variance_kept:0.85 data in
      let label = Printf.sprintf "%d cols" (4 + pad) in
      Alcotest.(check int) (label ^ ": the whole tie kept") 3 (Array.length model.Pca.eigenvalues);
      check_float_loose (label ^ ": tied variance") (2.0 /. 7.0) model.Pca.eigenvalues.(2);
      let past_tie = Pca.fit ~variance_kept:0.95 data in
      Alcotest.(check int) (label ^ ": no tie at the cut") 3
        (Array.length past_tie.Pca.eigenvalues))
    [ 0; 8 ]

(* --- kmeans ------------------------------------------------------------ *)

let test_kmeans_separated_clusters () =
  let rng = Rng.create 33 in
  let cluster cx cy =
    Array.init 30 (fun _ -> [| cx +. Rng.float rng 0.5; cy +. Rng.float rng 0.5 |])
  in
  let data = Array.concat [ cluster 0.0 0.0; cluster 10.0 10.0; cluster (-10.0) 5.0 ] in
  let result = Kmeans.cluster ~rng ~k:3 (Matrix.of_arrays data) in
  let k, _ = Matrix.dims result.Kmeans.centroids in
  Alcotest.(check int) "three clusters survive" 3 k;
  let blob_label blob = result.Kmeans.assignment.(blob * 30) in
  for blob = 0 to 2 do
    for i = 0 to 29 do
      Alcotest.(check int)
        (Printf.sprintf "blob %d homogeneous" blob)
        (blob_label blob)
        result.Kmeans.assignment.((blob * 30) + i)
    done
  done

let test_kmeans_centroids_are_means () =
  let rng = Rng.create 4 in
  let data = Matrix.of_arrays [| [| 0.0 |]; [| 1.0 |]; [| 10.0 |]; [| 11.0 |] |] in
  let result = Kmeans.cluster ~rng ~k:2 data in
  let members =
    Array.init 2 (fun c ->
        Array.of_list
          (List.filter (fun i -> result.Kmeans.assignment.(i) = c) (List.init 4 Fun.id)))
  in
  Array.iteri
    (fun c idxs ->
      let mean =
        Array.fold_left (fun acc i -> acc +. Matrix.get data i 0) 0.0 idxs
        /. float_of_int (Array.length idxs)
      in
      check_float_loose
        (Printf.sprintf "centroid %d is the member mean" c)
        mean
        (Matrix.get result.Kmeans.centroids c 0))
    members

let test_kmeans_deterministic () =
  let data =
    Matrix.of_arrays
      (Array.init 20 (fun i -> [| float_of_int (i mod 5); float_of_int (i / 5) |]))
  in
  let r1 = Kmeans.cluster ~rng:(Rng.create 8) ~k:4 data in
  let r2 = Kmeans.cluster ~rng:(Rng.create 8) ~k:4 data in
  Alcotest.(check (array int)) "same seed, same clustering" r1.Kmeans.assignment
    r2.Kmeans.assignment

(* k-means++ seeding as it stood: every row refolds its distance to
   every chosen centroid, newest first. *)
let reference_seed_centroids rng k rows =
  let n = Array.length rows in
  let squared_distance a b =
    let acc = ref 0.0 in
    for i = 0 to Array.length a - 1 do
      let d = a.(i) -. b.(i) in
      acc := !acc +. (d *. d)
    done;
    !acc
  in
  let chosen = ref [ rows.(Rng.int rng n) ] in
  let dist_to_chosen p =
    List.fold_left (fun acc c -> Float.min acc (squared_distance p c)) Float.max_float !chosen
  in
  while List.length !chosen < k do
    let weights = Array.map dist_to_chosen rows in
    let total = Array.fold_left ( +. ) 0.0 weights in
    let idx = if total <= 0.0 then Rng.int rng n else Rng.choose_weighted rng weights in
    chosen := rows.(idx) :: !chosen
  done;
  Array.of_list (List.rev !chosen)

(* n rows of [dim] features, some copies of earlier rows; with [same],
   all rows are one row, so every draw after the first has total
   weight 0. k runs from 1 to n. The seeds must be the reference's bit
   for bit, so must the nearest-seed assignment, and the generator must
   be left in the same state. *)
let prop_seeding_matches_reference =
  QCheck2.Test.make ~name:"kmeans++ seeding = list-fold reference, bit for bit" ~count:300
    ~print:QCheck2.Print.(quad int int int bool)
    QCheck2.Gen.(quad (int_range 0 1_000_000) (int_range 1 30) (int_range 1 5) bool)
    (fun (seed, n, dim, same) ->
      let rng = Rng.create seed in
      let k = 1 + Rng.int rng n in
      let rows = Array.make n [||] in
      for i = 0 to n - 1 do
        rows.(i) <-
          (if i > 0 && (same || Rng.float rng 1.0 < 0.3) then Array.copy rows.(Rng.int rng i)
           else Array.init dim (fun _ -> Float.round (Rng.float rng 8.0)))
      done;
      let r1 = Rng.copy rng and r2 = Rng.copy rng in
      let seeds = Kmeans.seed_centroids r1 k rows in
      let expected = reference_seed_centroids r2 k rows in
      let nearest centroids p =
        Stats.argmin
          (Array.map
             (fun c ->
               Array.fold_left ( +. ) 0.0 (Array.map2 (fun x y -> (x -. y) *. (x -. y)) p c))
             centroids)
      in
      Array.length seeds = k
      && same_floats (Array.concat (Array.to_list seeds)) (Array.concat (Array.to_list expected))
      && Array.for_all (fun p -> nearest seeds p = nearest expected p) rows
      && Rng.int r1 1_000_000 = Rng.int r2 1_000_000)

let prop_kmeans_assignment_dense =
  QCheck2.Test.make ~name:"kmeans: assignments cover a dense range" ~count:50
    QCheck2.Gen.(pair (int_range 1 8) (int_range 1 40))
    (fun (k, n) ->
      let rng = Rng.create (k + (n * 31)) in
      let data = Matrix.init n 2 (fun _ _ -> Rng.float rng 10.0) in
      let r = Kmeans.cluster ~rng ~k data in
      let k', _ = Matrix.dims r.Kmeans.centroids in
      let seen = Array.make k' false in
      Array.iter (fun c -> seen.(c) <- true) r.Kmeans.assignment;
      Array.for_all (fun b -> b) seen)

let () =
  Alcotest.run "mlkit"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "invalid arguments" `Quick test_rng_invalid;
          Alcotest.test_case "weighted choice" `Quick test_rng_weighted;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "get/set/dims" `Quick test_matrix_basic;
          Alcotest.test_case "identity multiplication" `Quick test_matrix_identity_mul;
          Alcotest.test_case "known product" `Quick test_matrix_mul_known;
          Alcotest.test_case "errors" `Quick test_matrix_errors;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/variance/minmax" `Quick test_stats_basic;
          Alcotest.test_case "quantile" `Quick test_stats_quantile;
          Alcotest.test_case "argmax/argmin" `Quick test_stats_argminmax;
        ] );
      ( "pca",
        [
          Alcotest.test_case "jacobi on a known matrix" `Quick test_pca_jacobi_known;
          Alcotest.test_case "recovers the principal axis" `Quick test_pca_recovers_principal_axis;
          Alcotest.test_case "transform shape and ratios" `Quick test_pca_transform_shape;
          QCheck_alcotest.to_alcotest prop_jacobi_reconstructs;
          QCheck_alcotest.to_alcotest prop_jacobi_matches_reference;
          QCheck_alcotest.to_alcotest prop_gram_fit_matches_covariance;
          QCheck_alcotest.to_alcotest prop_fit_transform_matches_transform;
          Alcotest.test_case "a cut inside a tie keeps the tie" `Quick test_pca_cut_inside_tie;
        ] );
      ( "kmeans",
        [
          Alcotest.test_case "separated clusters recovered" `Quick test_kmeans_separated_clusters;
          Alcotest.test_case "centroids are member means" `Quick test_kmeans_centroids_are_means;
          Alcotest.test_case "deterministic under a seed" `Quick test_kmeans_deterministic;
          QCheck_alcotest.to_alcotest prop_kmeans_assignment_dense;
          QCheck_alcotest.to_alcotest prop_seeding_matches_reference;
        ] );
    ]
