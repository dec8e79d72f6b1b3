(* The covariance-side PCA fit: eigendecompose the full cols x cols
   sample covariance with [Pca.jacobi_eigen], then cut where
   [Pca.fit] cuts (the variance target, then the rest of any tie within
   1e-9 of the largest eigenvalue). The oracle [Pca.fit]'s Gram-side
   solve must match. *)

module Matrix = Mlkit.Matrix
module Pca = Mlkit.Pca

(* The sample covariance of the rows of [data] about [mean], over
   [rows - 1] (at least 1). *)
let covariance data mean =
  let rows, cols = Matrix.dims data in
  let denom = float_of_int (max 1 (rows - 1)) in
  Matrix.init cols cols (fun a b ->
      let acc = ref 0.0 in
      for i = 0 to rows - 1 do
        acc := !acc +. ((Matrix.get data i a -. mean.(a)) *. (Matrix.get data i b -. mean.(b)))
      done;
      !acc /. denom)

let fit ~variance_kept data =
  let rows, cols = Matrix.dims data in
  let mean =
    Array.init cols (fun j ->
        Array.fold_left ( +. ) 0.0 (Matrix.col data j) /. float_of_int rows)
  in
  let values, vectors = Pca.jacobi_eigen (covariance data mean) in
  let total = Array.fold_left (fun acc x -> acc +. Float.max 0.0 x) 0.0 values in
  let keep =
    if total <= 0.0 then 1
    else begin
      let k = ref 0 and acc = ref 0.0 in
      while !k < cols && !acc < variance_kept *. total do
        acc := !acc +. Float.max 0.0 values.(!k);
        incr k
      done;
      let k = ref (max 1 !k) in
      while !k < cols && values.(!k - 1) -. values.(!k) <= 1e-9 *. values.(0) do
        incr k
      done;
      !k
    end
  in
  {
    Pca.mean;
    components = Matrix.init keep cols (Matrix.get vectors);
    eigenvalues = Array.sub values 0 keep;
  }

(* Squared distances between every pair of rows of [m]. *)
let pairwise_sq_distances m =
  let rows, cols = Matrix.dims m in
  Array.init (rows * rows) (fun p ->
      let i = p / rows and k = p mod rows in
      let acc = ref 0.0 in
      for j = 0 to cols - 1 do
        let d = Matrix.get m i j -. Matrix.get m k j in
        acc := !acc +. (d *. d)
      done;
      !acc)
