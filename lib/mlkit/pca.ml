type model = {
  mean : float array;
  components : Matrix.t;
  eigenvalues : float array;
}

(* [jacobi_sweeps a vt n max_sweeps]: cyclic Jacobi rotations, in place
   on the flat n x n matrix [a] and the accumulated rotations [vt], kept
   transposed ([vt.(p * n + k)] is V's element (k, p)), until the
   off-diagonal mass is at most 1e-18 or [max_sweeps] sweeps have run.
   Each rotation zeroes one off-diagonal element, in row order, and
   updates A's columns p and q, then A's rows p and q and Vᵀ's rows p
   and q, so two of its three updates run along a contiguous row. *)
external jacobi_sweeps : float array -> float array -> int -> int -> unit
  = "adprom_mlkit_jacobi_sweeps"
[@@noalloc]

let jacobi_eigen m =
  let n, cols = Matrix.dims m in
  if n <> cols then invalid_arg "Pca.jacobi_eigen: matrix must be square";
  (* the kernel reads n * n elements unchecked *)
  if Array.length m.Matrix.data <> n * n then
    invalid_arg "Pca.jacobi_eigen: inconsistent dimensions";
  let a = Array.copy m.Matrix.data in
  let vt = (Matrix.identity n).Matrix.data in
  jacobi_sweeps a vt n 100;
  let diagonal i = a.((i * n) + i) in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> compare (diagonal j) (diagonal i)) order;
  let values = Array.map diagonal order in
  (* Eigenvectors as rows: row r of the result is the eigenvector for
     [values.(r)], i.e. row [order.(r)] of [vt]. *)
  let vectors = Matrix.init n n (fun r c -> vt.((order.(r) * n) + c)) in
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

(* The rows of [data] less [mean]. *)
let centre mean data =
  let rows, cols = Matrix.dims data in
  Array.init rows (fun i ->
      Array.init cols (fun j -> data.Matrix.data.((i * cols) + j) -. mean.(j)))

(* The model and the centred rows it was fitted on. *)
let fit_centred ~variance_kept data =
  let rows, cols = Matrix.dims data in
  if rows = 0 then invalid_arg "Pca.fit: no observations";
  let mean = Array.init cols (fun j -> Array.fold_left ( +. ) 0.0 (Matrix.col data j) /. float_of_int rows) in
  let xc = centre mean data in
  let values, vectors = jacobi_eigen (gram xc) in
  (* at most min rows cols eigenvalues are nonzero *)
  let n = min rows cols in
  let keep = keep_count ~variance_kept ~cap:n values in
  let axis r = axis_of_gram xc (Matrix.row vectors r) r in
  let components = Matrix.of_arrays (Array.init keep axis) in
  ({ mean; components; eigenvalues = Array.sub values 0 keep }, xc)

let fit ~variance_kept data = fst (fit_centred ~variance_kept data)

(* Row i of the result holds the centred row [xc.(i)]'s coordinate on
   each axis of [components]: a sum over the features in order, from
   0.0. *)
let project xc components =
  let k, cols = Matrix.dims components in
  let axes = components.Matrix.data in
  let out = Matrix.create (Array.length xc) k in
  Array.iteri
    (fun i xi ->
      for c = 0 to k - 1 do
        let base = c * cols in
        let acc = ref 0.0 in
        for j = 0 to cols - 1 do
          acc := !acc +. (Array.unsafe_get xi j *. Array.unsafe_get axes (base + j))
        done;
        out.Matrix.data.((i * k) + c) <- !acc
      done)
    xc;
  out

let transform model data =
  let cols = Array.length model.mean in
  if snd (Matrix.dims data) <> cols || snd (Matrix.dims model.components) <> cols then
    invalid_arg "Pca.transform: dimension mismatch";
  project (centre model.mean data) model.components

let fit_transform ~variance_kept data =
  let model, xc = fit_centred ~variance_kept data in
  (model, project xc model.components)
