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

(* Eigenvalues within this fraction of the largest one are a tie: a
   cut inside a tie would keep a subspace chosen by rounding. *)
let tie_tolerance = 1e-9

(* Axes to keep of the descending spectrum [values]: enough to explain
   [variance_kept] of the total, then the rest of any tie the cut falls
   in, at most [cap] (but at least one). *)
let keep_count ~variance_kept ~cap values =
  let total = Array.fold_left (fun acc x -> acc +. Float.max 0.0 x) 0.0 values in
  if total <= 0.0 then 1
  else begin
    let acc = ref 0.0 and k = ref 0 in
    while !k < cap && !acc < variance_kept *. total do
      acc := !acc +. Float.max 0.0 values.(!k);
      incr k
    done;
    let k = ref (max 1 !k) in
    while !k < cap && values.(!k - 1) -. values.(!k) <= tie_tolerance *. values.(0) do
      incr k
    done;
    !k
  end

(* The rows x rows Gram matrix [Xc·Xcᵀ / (rows - 1)] of the centred
   rows [xc]: it has the covariance's nonzero spectrum. *)
let gram xc =
  let rows = Array.length xc in
  let denom = float_of_int (max 1 (rows - 1)) in
  let g = Array.make_matrix rows rows 0.0 in
  for i = 0 to rows - 1 do
    let xi = xc.(i) in
    for k = i to rows - 1 do
      let xk = xc.(k) in
      let acc = ref 0.0 in
      for j = 0 to Array.length xi - 1 do
        acc := !acc +. (Array.unsafe_get xi j *. Array.unsafe_get xk j)
      done;
      g.(i).(k) <- !acc /. denom;
      g.(k).(i) <- !acc /. denom
    done
  done;
  Matrix.of_arrays g

(* The covariance axis of the Gram eigenvector [u]: [Xcᵀu / ‖Xcᵀu‖], or
   the unit vector [e_r] when [u] lies in the null space of [Xcᵀ] (a
   zero eigenvalue: no variance along any axis it could name). *)
let axis_of_gram xc u r =
  let cols = Array.length xc.(0) in
  let v = Array.make cols 0.0 in
  Array.iteri
    (fun i xi ->
      let ui = u.(i) in
      for j = 0 to cols - 1 do
        Array.unsafe_set v j (Array.unsafe_get v j +. (ui *. Array.unsafe_get xi j))
      done)
    xc;
  let norm = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 v) in
  if norm > 0.0 then Array.map (fun x -> x /. norm) v
  else Array.init cols (fun j -> if j = r then 1.0 else 0.0)

let fit ?(variance_kept = 0.95) ?max_components data =
  let rows, cols = Matrix.dims data in
  if rows = 0 then invalid_arg "Pca.fit: no observations";
  let mean = Array.init cols (fun j -> Array.fold_left ( +. ) 0.0 (Matrix.col data j) /. float_of_int rows) in
  let xc = Array.init rows (fun i -> Array.init cols (fun j -> Matrix.get data i j -. mean.(j))) in
  let values, vectors = jacobi_eigen (gram xc) in
  (* at most min rows cols eigenvalues are nonzero *)
  let n = min rows cols in
  let cap = match max_components with Some c -> min c n | None -> n in
  let keep = keep_count ~variance_kept ~cap values in
  let axis r = axis_of_gram xc (Matrix.row vectors r) r in
  { mean; components = Matrix.of_arrays (Array.init keep axis); eigenvalues = Array.sub values 0 keep }

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
