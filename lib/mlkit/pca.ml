type model = {
  mean : float array;
  components : Matrix.t;
  eigenvalues : float array;
}

(* Cyclic Jacobi rotations: repeatedly zero the largest off-diagonal
   element until the off-diagonal mass is negligible. [a] is the working
   matrix, one array per row, and [vt] holds the accumulated rotations
   transposed ([vt.(p).(k)] is V's element (k, p)), so a rotation's row
   update of A and its column update of V both run along a row. *)
let jacobi_eigen m =
  let n, cols = Matrix.dims m in
  if n <> cols then invalid_arg "Pca.jacobi_eigen: matrix must be square";
  let a = Matrix.to_arrays m in
  let vt = Matrix.to_arrays (Matrix.identity n) in
  let off_diagonal_mass () =
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      let ai = a.(i) in
      for j = i + 1 to n - 1 do
        let x = Array.unsafe_get ai j in
        acc := !acc +. (x *. x)
      done
    done;
    !acc
  in
  (* rows p and q of [x] *)
  let rotate_rows x p q c s =
    let xp = x.(p) and xq = x.(q) in
    for k = 0 to n - 1 do
      let xpk = Array.unsafe_get xp k and xqk = Array.unsafe_get xq k in
      Array.unsafe_set xp k ((c *. xpk) -. (s *. xqk));
      Array.unsafe_set xq k ((s *. xpk) +. (c *. xqk))
    done
  in
  let rotate p q =
    let apq = a.(p).(q) in
    if Float.abs apq > 1e-14 then begin
      let theta = (a.(q).(q) -. a.(p).(p)) /. (2.0 *. apq) in
      let t =
        let sign = if theta >= 0.0 then 1.0 else -1.0 in
        sign /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.0))
      in
      let c = 1.0 /. sqrt ((t *. t) +. 1.0) in
      let s = t *. c in
      (* columns p and q of A *)
      for k = 0 to n - 1 do
        let ak = Array.unsafe_get a k in
        let akp = Array.unsafe_get ak p and akq = Array.unsafe_get ak q in
        Array.unsafe_set ak p ((c *. akp) -. (s *. akq));
        Array.unsafe_set ak q ((s *. akp) +. (c *. akq))
      done;
      rotate_rows a p q c s;
      rotate_rows vt p q c s
    end
  in
  let max_sweeps = 100 in
  let sweep = ref 0 in
  while off_diagonal_mass () > 1e-18 && !sweep < max_sweeps do
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
  (* Eigenvectors as rows: row r of the result is the eigenvector for
     [values.(r)], i.e. row [order.(r)] of [vt]. *)
  let vectors = Matrix.init n n (fun r c -> vt.(order.(r)).(c)) in
  (values, vectors)

let covariance data mean =
  let rows, cols = Matrix.dims data in
  if Array.length mean <> cols then invalid_arg "Pca.covariance: one mean per column";
  let d = data.Matrix.data in
  let cov = Array.make (cols * cols) 0.0 in
  let denom = float_of_int (max 1 (rows - 1)) in
  for i = 0 to rows - 1 do
    let r = i * cols in
    for a = 0 to cols - 1 do
      let da = Array.unsafe_get d (r + a) -. Array.unsafe_get mean a in
      if da <> 0.0 then begin
        let ca = a * cols in
        for b = a to cols - 1 do
          let db = Array.unsafe_get d (r + b) -. Array.unsafe_get mean b in
          Array.unsafe_set cov (ca + b) (Array.unsafe_get cov (ca + b) +. (da *. db))
        done
      end
    done
  done;
  Matrix.init cols cols (fun a b ->
      let a', b' = if a <= b then (a, b) else (b, a) in
      cov.((a' * cols) + b') /. denom)

let fit ?(variance_kept = 0.95) ?max_components data =
  let rows, cols = Matrix.dims data in
  if rows = 0 then invalid_arg "Pca.fit: no observations";
  let mean = Array.init cols (fun j -> Array.fold_left ( +. ) 0.0 (Matrix.col data j) /. float_of_int rows) in
  let values, vectors = jacobi_eigen (covariance data mean) in
  let total = Array.fold_left (fun acc x -> acc +. Float.max 0.0 x) 0.0 values in
  let cap = match max_components with Some c -> min c cols | None -> cols in
  let keep =
    if total <= 0.0 then 1
    else begin
      let acc = ref 0.0 and k = ref 0 in
      while !k < cap && !acc < variance_kept *. total do
        acc := !acc +. Float.max 0.0 values.(!k);
        incr k
      done;
      max 1 !k
    end
  in
  {
    mean;
    components = Matrix.init keep cols (fun i j -> Matrix.get vectors i j);
    eigenvalues = Array.sub values 0 keep;
  }

let transform model data =
  let rows, cols = Matrix.dims data in
  if cols <> Array.length model.mean then invalid_arg "Pca.transform: dimension mismatch";
  let k, _ = Matrix.dims model.components in
  Matrix.init rows k (fun i c ->
      let acc = ref 0.0 in
      for j = 0 to cols - 1 do
        acc := !acc +. ((Matrix.get data i j -. model.mean.(j)) *. Matrix.get model.components c j)
      done;
      !acc)

let fit_transform ?variance_kept ?max_components data =
  let model = fit ?variance_kept ?max_components data in
  (model, transform model data)

let explained_variance_ratio model =
  let total = Array.fold_left (fun acc x -> acc +. Float.max 0.0 x) 0.0 model.eigenvalues in
  if total <= 0.0 then Array.map (fun _ -> 0.0) model.eigenvalues
  else Array.map (fun x -> Float.max 0.0 x /. total) model.eigenvalues
