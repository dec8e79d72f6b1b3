module Symbol = Analysis.Symbol
module Ctm = Analysis.Ctm
module Matrix = Mlkit.Matrix

type clustering = {
  sites : Symbol.t array;
  assignment : int array;
  states : int;
  reduced : bool;
}

(* Row i: column 0 holds site i's edge to Exit, column 1 + j its edge to
   site j, column n + 1 the edge from Entry to it and column n + 2 + j
   the edge from site j to it. Each nonzero of the pCTM lands in at most
   two cells; a self-call fills both site i's successor column i and its
   predecessor column i. *)
let ctvs_of_sites pctm sites =
  let n = Array.length sites in
  let index = Symbol.Table.create (2 * n) in
  Array.iteri (fun i site -> Symbol.Table.replace index site i) sites;
  let matrix = Matrix.create n (2 * (n + 1)) in
  Ctm.iter
    (fun x y v ->
      let from = Symbol.Table.find_opt index x and into = Symbol.Table.find_opt index y in
      (match (from, y) with
      | Some i, Symbol.Exit -> Matrix.set matrix i 0 v
      | Some i, _ -> Option.iter (fun j -> Matrix.set matrix i (1 + j) v) into
      | None, _ -> ());
      match (into, x) with
      | Some j, Symbol.Entry -> Matrix.set matrix j (n + 1) v
      | Some j, _ -> Option.iter (fun i -> Matrix.set matrix j (n + 2 + i) v) from
      | None, _ -> ())
    pctm;
  matrix

let ctv_matrix pctm =
  let sites = Array.of_list (Ctm.calls pctm) in
  (sites, ctvs_of_sites pctm sites)

let cluster ~rng ~max_states ~cluster_fraction ~pca_variance pctm =
  let sites = Array.of_list (Ctm.calls pctm) in
  let n = Array.length sites in
  if n = 0 then { sites; assignment = [||]; states = 0; reduced = false }
  else if n <= max_states then
    { sites; assignment = Array.init n (fun i -> i); states = n; reduced = false }
  else begin
    let _, projected =
      Mlkit.Pca.fit_transform ~variance_kept:pca_variance (ctvs_of_sites pctm sites)
    in
    let k = max 2 (int_of_float (cluster_fraction *. float_of_int n)) in
    let result = Mlkit.Kmeans.cluster ~rng ~k projected in
    let states, _ = Matrix.dims result.Mlkit.Kmeans.centroids in
    { sites; assignment = result.Mlkit.Kmeans.assignment; states; reduced = true }
  end

let site_flow pctm site = Ctm.column_sum pctm site

let smoothing = 1e-6

let normalize_row row =
  let k = Array.length row in
  let s = Array.fold_left ( +. ) 0.0 row in
  if s <= 0.0 then Array.make k (1.0 /. float_of_int k)
  else
    let denom = s +. (smoothing *. float_of_int k) in
    Array.map (fun v -> (v +. smoothing) /. denom) row

let init_hmm pctm clustering ~alphabet =
  let n = clustering.states in
  let m = Array.length alphabet in
  if n = 0 || m = 0 then invalid_arg "Reduction.init_hmm: empty model";
  let site_state = Hashtbl.create 64 in
  Array.iteri
    (fun i site -> Hashtbl.replace site_state site clustering.assignment.(i))
    clustering.sites;
  let obs_index = Symbol.Table.create 64 in
  Array.iteri (fun i o -> Symbol.Table.replace obs_index o i) alphabet;
  let a_acc = Array.make_matrix n n 0.0 in
  let b_acc = Array.make_matrix n m 0.0 in
  let pi_acc = Array.make n 0.0 in
  Ctm.iter
    (fun x y v ->
      match (Hashtbl.find_opt site_state x, Hashtbl.find_opt site_state y) with
      | Some sx, Some sy -> a_acc.(sx).(sy) <- a_acc.(sx).(sy) +. v
      | Some _, None | None, Some _ | None, None -> ())
    pctm;
  Array.iter
    (fun site ->
      match Hashtbl.find_opt site_state site with
      | None -> ()
      | Some s ->
          let flow = site_flow pctm site in
          pi_acc.(s) <- pi_acc.(s) +. flow;
          let o =
            match Symbol.Table.find_opt obs_index (Symbol.observable site) with
            | Some o -> o
            | None -> -1
          in
          if o >= 0 then b_acc.(s).(o) <- b_acc.(s).(o) +. Float.max flow smoothing)
    clustering.sites;
  Hmm.create
    ~a:(Matrix.of_arrays (Array.map normalize_row a_acc))
    ~b:(Matrix.of_arrays (Array.map normalize_row b_acc))
    ~pi:(normalize_row pi_acc)
