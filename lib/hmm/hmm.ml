module Matrix = Mlkit.Matrix
module Rng = Mlkit.Rng

type t = {
  n : int;
  m : int;
  a : Matrix.t;
  b : Matrix.t;
  pi : float array;
}

(* Every check is written so that NaN fails it: a non-finite entry is
   rejected, as the compiled kernels' skip of zero-weight terms needs. *)
let row_stochastic m =
  let rows, cols = Matrix.dims m in
  let ok = ref true in
  for i = 0 to rows - 1 do
    let s = ref 0.0 in
    for j = 0 to cols - 1 do
      let v = Matrix.get m i j in
      if not (v >= -.1e-12) then ok := false;
      s := !s +. v
    done;
    if not (Float.abs (!s -. 1.0) <= 1e-6) then ok := false
  done;
  !ok

let validate t =
  let an, am = Matrix.dims t.a in
  let bn, bm = Matrix.dims t.b in
  if an <> t.n || am <> t.n then Error "A must be n x n"
  else if bn <> t.n || bm <> t.m then Error "B must be n x m"
  else if Array.length t.pi <> t.n then Error "pi must have n entries"
  else if not (row_stochastic t.a) then Error "A rows must be non-negative and sum to 1"
  else if not (row_stochastic t.b) then Error "B rows must be non-negative and sum to 1"
  else begin
    let s = Array.fold_left ( +. ) 0.0 t.pi in
    if Array.exists (fun p -> not (p >= -.1e-12)) t.pi then Error "pi must be non-negative"
    else if not (Float.abs (s -. 1.0) <= 1e-6) then Error "pi must sum to 1"
    else Ok ()
  end

let create ~a ~b ~pi =
  let n, _ = Matrix.dims a in
  let _, m = Matrix.dims b in
  let t = { n; m; a; b; pi } in
  match validate t with
  | Ok () -> t
  | Error msg -> invalid_arg ("Hmm.create: " ^ msg)

let random_stochastic_row rng k =
  let row = Array.init k (fun _ -> 0.05 +. Rng.float rng 1.0) in
  let s = Array.fold_left ( +. ) 0.0 row in
  Array.map (fun v -> v /. s) row

let random ~rng ~n ~m =
  let a_rows = Array.init n (fun _ -> random_stochastic_row rng n) in
  let b_rows = Array.init n (fun _ -> random_stochastic_row rng m) in
  create ~a:(Matrix.of_arrays a_rows) ~b:(Matrix.of_arrays b_rows)
    ~pi:(random_stochastic_row rng n)

let uniform ~n ~m =
  let a = Matrix.init n n (fun _ _ -> 1.0 /. float_of_int n) in
  let b = Matrix.init n m (fun _ _ -> 1.0 /. float_of_int m) in
  create ~a ~b ~pi:(Array.make n (1.0 /. float_of_int n))

let check_observations t obs =
  Array.iter
    (fun o ->
      if o < 0 || o >= t.m then
        invalid_arg (Printf.sprintf "Hmm: observation %d outside alphabet of size %d" o t.m))
    obs

(* Emissions transposed: row [o] holds [b_i(o)] for every state [i]. *)
let emissions_by_symbol t =
  let bdata = t.b.Matrix.data in
  Array.init t.m (fun o -> Array.init t.n (fun i -> bdata.((i * t.m) + o)))

(* The C side, in [hmm_kernels.c]. Each output element adds its terms in
   the reference's order, so results are bit for bit those of the
   row-at-a-time loops. *)

(* [propagate a src dst]: [dst.(j) <- Σ_i src.(i) · a_ij] over the rows
   whose weight is positive, in increasing [i], each sum starting from
   0.0, with [a] the flat row-major transition table: the transition
   step of [forward]. *)
external propagate : float array -> float array -> float array -> unit
  = "adprom_hmm_propagate"
[@@noalloc]

(* Scaled forward pass: [alpha.(t).(i)] is normalized per step and
   [scale.(t)] holds the pre-normalization sums, so
   [log P(O) = sum (log scale.(t))]. A zero scale means the prefix is
   impossible; remaining steps stay zero. *)
let forward t obs =
  check_observations t obs;
  let n = t.n and m = t.m in
  let adata = t.a.Matrix.data and bdata = t.b.Matrix.data in
  let len = Array.length obs in
  let alpha = Array.make_matrix len n 0.0 in
  let scale = Array.make len 0.0 in
  if len > 0 then begin
    let row0 = alpha.(0) and o0 = obs.(0) in
    for i = 0 to n - 1 do
      row0.(i) <- t.pi.(i) *. Array.unsafe_get bdata ((i * m) + o0)
    done;
    scale.(0) <- Array.fold_left ( +. ) 0.0 row0;
    if scale.(0) > 0.0 then
      for i = 0 to n - 1 do
        row0.(i) <- row0.(i) /. scale.(0)
      done;
    for step = 1 to len - 1 do
      if scale.(step - 1) > 0.0 then begin
        let prev = alpha.(step - 1) and cur = alpha.(step) in
        (* row-major streaming over A: cur_j = sum_i prev_i * a_ij *)
        for i = 0 to n - 1 do
          let pi_ = Array.unsafe_get prev i in
          if pi_ > 0.0 then begin
            let base = i * n in
            for j = 0 to n - 1 do
              Array.unsafe_set cur j
                (Array.unsafe_get cur j +. (pi_ *. Array.unsafe_get adata (base + j)))
            done
          end
        done;
        let o = obs.(step) in
        let total = ref 0.0 in
        for j = 0 to n - 1 do
          let v = Array.unsafe_get cur j *. Array.unsafe_get bdata ((j * m) + o) in
          Array.unsafe_set cur j v;
          total := !total +. v
        done;
        scale.(step) <- !total;
        if !total > 0.0 then
          for j = 0 to n - 1 do
            Array.unsafe_set cur j (Array.unsafe_get cur j /. !total)
          done
      end
    done
  end;
  (alpha, scale)

(* Compiled evaluation: the same scaled forward pass, restricted to the
   evaluation problem, with the tables split into rows and every buffer
   preallocated so the steady-state scoring path allocates nothing. The
   arithmetic mirrors [forward]/[log_likelihood] operation for
   operation (same summation order, same guards; the transition step
   is [propagate]), so compiled scores are bit-for-bit equal to the
   reference ones. *)
module Compiled = struct
  type model = t

  type t = {
    model : model;
    n : int;
    m : int;
    a : float array;  (* A, flat and row-major: the model's own data *)
    bt : float array array;  (* emissions transposed: row [o] is the
                                column of observation symbol [o] *)
    pi : float array;
    mutable cur : float array;  (* scratch forward rows, reused *)
    mutable nxt : float array;
  }

  let of_model (model : model) =
    let n = model.n in
    {
      model;
      n;
      m = model.m;
      a = model.a.Matrix.data;
      bt = emissions_by_symbol model;
      pi = model.pi;
      cur = Array.make n 0.0;
      nxt = Array.make n 0.0;
    }

  let model c = c.model

  let check_slice c obs ~pos ~len =
    if pos < 0 || len < 0 || pos + len > Array.length obs then
      invalid_arg "Hmm.Compiled: slice out of bounds";
    for k = pos to pos + len - 1 do
      let o = Array.unsafe_get obs k in
      if o < 0 || o >= c.m then
        invalid_arg
          (Printf.sprintf "Hmm: observation %d outside alphabet of size %d" o c.m)
    done

  (* [log P(obs.(pos .. pos+len-1) | λ)], allocation-free. Exactly
     [log_likelihood] on the slice: [neg_infinity] as soon as a scaling
     factor is not positive (or NaN), otherwise the in-order sum of
     [log c_t]. *)
  let log_likelihood_sub c obs ~pos ~len =
    check_slice c obs ~pos ~len;
    if len = 0 then 0.0
    else begin
      let n = c.n in
      let cur = c.cur in
      let b0 = c.bt.(obs.(pos)) in
      for i = 0 to n - 1 do
        Array.unsafe_set cur i (c.pi.(i) *. Array.unsafe_get b0 i)
      done;
      let scale0 = ref 0.0 in
      for i = 0 to n - 1 do
        scale0 := !scale0 +. Array.unsafe_get cur i
      done;
      if not (!scale0 > 0.0) then neg_infinity
      else begin
        for i = 0 to n - 1 do
          Array.unsafe_set cur i (Array.unsafe_get cur i /. !scale0)
        done;
        let loglik = ref (0.0 +. log !scale0) in
        let impossible = ref false in
        let step = ref 1 in
        while (not !impossible) && !step < len do
          let cur = c.cur and nxt = c.nxt in
          propagate c.a cur nxt;
          let b = c.bt.(obs.(pos + !step)) in
          let total = ref 0.0 in
          for j = 0 to n - 1 do
            let v = Array.unsafe_get nxt j *. Array.unsafe_get b j in
            Array.unsafe_set nxt j v;
            total := !total +. v
          done;
          if not (!total > 0.0) then impossible := true
          else begin
            loglik := !loglik +. log !total;
            for j = 0 to n - 1 do
              Array.unsafe_set nxt j (Array.unsafe_get nxt j /. !total)
            done;
            c.cur <- nxt;
            c.nxt <- cur;
            incr step
          end
        done;
        if !impossible then neg_infinity else !loglik
      end
    end

  (* The pass of [log_likelihood_sub] over all of [obs], in its own
     loop so that the scoring loop carries no per-step store: step [t]
     records [-log c_t] and stops at the first scale that is not
     positive, leaving [infinity] from there on. *)
  let step_surprisals c obs =
    let len = Array.length obs in
    check_slice c obs ~pos:0 ~len;
    let surprisals = Array.make len infinity in
    if len > 0 then begin
      let n = c.n in
      let cur = c.cur and b0 = c.bt.(obs.(0)) in
      for i = 0 to n - 1 do
        cur.(i) <- c.pi.(i) *. b0.(i)
      done;
      let total = ref 0.0 in
      for i = 0 to n - 1 do
        total := !total +. cur.(i)
      done;
      let step = ref 0 in
      (* [c.cur] holds step [!step]'s row, unnormalised, with sum [!total] *)
      while !total > 0.0 do
        let cur = c.cur and nxt = c.nxt in
        surprisals.(!step) <- -.log !total;
        for i = 0 to n - 1 do
          cur.(i) <- cur.(i) /. !total
        done;
        total := 0.0;
        incr step;
        if !step < len then begin
          propagate c.a cur nxt;
          let b = c.bt.(obs.(!step)) in
          for j = 0 to n - 1 do
            let v = nxt.(j) *. b.(j) in
            nxt.(j) <- v;
            total := !total +. v
          done;
          c.cur <- nxt;
          c.nxt <- cur
        end
      done
    end;
    surprisals

  let per_symbol_score_sub c obs ~pos ~len =
    if len = 0 then 0.0 else log_likelihood_sub c obs ~pos ~len /. float_of_int len

  let log_likelihood c obs =
    log_likelihood_sub c obs ~pos:0 ~len:(Array.length obs)

  let per_symbol_score c obs =
    per_symbol_score_sub c obs ~pos:0 ~len:(Array.length obs)
end

let sample ~rng t len =
  let obs = Array.make len 0 in
  if len > 0 then begin
    let state = ref (Rng.choose_weighted rng t.pi) in
    for i = 0 to len - 1 do
      if i > 0 then state := Rng.choose_weighted rng (Matrix.row t.a !state);
      obs.(i) <- Rng.choose_weighted rng (Matrix.row t.b !state)
    done
  end;
  obs

let step_surprisals t obs =
  let _, scale = forward t obs in
  Array.map (fun s -> if s > 0.0 then -.log s else infinity) scale

let log_likelihood t obs =
  if Array.length obs = 0 then 0.0
  else
    let _, scale = forward t obs in
    if Array.exists (fun s -> not (s > 0.0)) scale then neg_infinity
    else Array.fold_left (fun acc s -> acc +. log s) 0.0 scale

let per_symbol_score t obs =
  let len = Array.length obs in
  if len = 0 then 0.0 else log_likelihood t obs /. float_of_int len

(* Scaled backward pass sharing the forward scaling factors, so
   gamma/xi can be formed from products of the two without overflow. *)
let backward t obs scale =
  let n = t.n and m = t.m in
  let adata = t.a.Matrix.data and bdata = t.b.Matrix.data in
  let len = Array.length obs in
  let beta = Array.make_matrix len n 0.0 in
  if len > 0 then begin
    let last = len - 1 in
    for i = 0 to n - 1 do
      beta.(last).(i) <- (if scale.(last) > 0.0 then 1.0 /. scale.(last) else 0.0)
    done;
    let bb = Array.make n 0.0 in
    for step = last - 1 downto 0 do
      if scale.(step) > 0.0 then begin
        let next = beta.(step + 1) and cur = beta.(step) in
        let o = obs.(step + 1) in
        for j = 0 to n - 1 do
          bb.(j) <- Array.unsafe_get bdata ((j * m) + o) *. Array.unsafe_get next j
        done;
        let inv = 1.0 /. scale.(step) in
        for i = 0 to n - 1 do
          let base = i * n in
          let acc = ref 0.0 in
          for j = 0 to n - 1 do
            acc := !acc +. (Array.unsafe_get adata (base + j) *. Array.unsafe_get bb j)
          done;
          cur.(i) <- !acc *. inv
        done
      end
    done
  end;
  beta

let viterbi t obs =
  check_observations t obs;
  let len = Array.length obs in
  if len = 0 then ([||], 0.0)
  else begin
    let safe_log x = if x > 0.0 then log x else neg_infinity in
    let delta = Array.make_matrix len t.n neg_infinity in
    let psi = Array.make_matrix len t.n 0 in
    for i = 0 to t.n - 1 do
      delta.(0).(i) <- safe_log t.pi.(i) +. safe_log (Matrix.get t.b i obs.(0))
    done;
    for step = 1 to len - 1 do
      for j = 0 to t.n - 1 do
        let best = ref neg_infinity and best_i = ref 0 in
        for i = 0 to t.n - 1 do
          let v = delta.(step - 1).(i) +. safe_log (Matrix.get t.a i j) in
          if v > !best then begin
            best := v;
            best_i := i
          end
        done;
        delta.(step).(j) <- !best +. safe_log (Matrix.get t.b j obs.(step));
        psi.(step).(j) <- !best_i
      done
    done;
    let last = len - 1 in
    let best_final = Mlkit.Stats.argmax delta.(last) in
    let path = Array.make len 0 in
    path.(last) <- best_final;
    for step = last - 1 downto 0 do
      path.(step) <- psi.(step + 1).(path.(step + 1))
    done;
    (path, delta.(last).(best_final))
  end

let smoothing_epsilon = 1e-6

let normalize_with_floor row =
  let k = Array.length row in
  let s = Array.fold_left ( +. ) 0.0 row in
  if s <= 0.0 then Array.make k (1.0 /. float_of_int k)
  else
    let denom = s +. (smoothing_epsilon *. float_of_int k) in
    Array.map (fun v -> (v +. smoothing_epsilon) /. denom) row

(* The C side of a pass, in [hmm_kernels.c]: [pass_layout obs off n m]
   lays out the windows [obs.(off.(w)) .. obs.(off.(w+1) - 1)], numbers
   their distinct prefixes and returns a table for models of [n] states
   and [m] symbols; [pass_build table a b pi scores] fills it with the
   rows of the model with flat tables [a], [b], [pi] and stores each
   window's per-symbol score in [scores]; [pass_step table weights a_acc
   b_acc pi_acc ll] adds the E-step of the first windows, one per
   weight, into the zeroed flat accumulators and stores the weighted
   log-likelihood in [ll.(0)]; [pass_release] unmaps the table, once. *)
type table

external pass_layout : int array -> int array -> int -> int -> table = "adprom_hmm_pass_layout"

external pass_build : table -> float array -> float array -> float array -> float array -> unit
  = "adprom_hmm_pass_build"

external pass_step :
  table -> float array -> float array -> float array -> float array -> float array -> unit
  = "adprom_hmm_pass_step_byte" "adprom_hmm_pass_step"

external pass_release : table -> unit = "adprom_hmm_pass_release" [@@noalloc]

module Pass = struct
  type model = t

  type t = {
    table : table;
    weights : float array;
    mutable model : model;  (* whose rows the table holds *)
    mutable scores : float array;
  }

  (* The C side reads the tables by [n] and [m] unchecked: refuse a
     record whose tables do not have the sizes [n] and [m] give them. *)
  let rebuild p (model : model) =
    let n = p.model.n and m = p.model.m in
    if
      model.n <> n
      || model.m <> m
      || Array.length model.a.Matrix.data <> n * n
      || Array.length model.b.Matrix.data <> n * m
      || Array.length model.pi <> n
    then invalid_arg "Hmm.Pass: inconsistent dimensions";
    let scores = Array.make (Array.length p.scores) 0.0 in
    pass_build p.table model.a.Matrix.data model.b.Matrix.data model.pi scores;
    p.model <- model;
    p.scores <- scores

  let release p = pass_release p.table

  let create (model : model) ~weighted ~extra =
    let all = Array.append (Array.map fst weighted) extra in
    Array.iter (check_observations model) all;
    let off = Array.make (Array.length all + 1) 0 in
    Array.iteri (fun w obs -> off.(w + 1) <- off.(w) + Array.length obs) all;
    let table = pass_layout (Array.concat (Array.to_list all)) off model.n model.m in
    let p =
      { table; weights = Array.map snd weighted; model; scores = Array.make (Array.length all) 0.0 }
    in
    (try rebuild p model
     with e ->
       release p;
       raise e);
    p

  let scores p = p.scores

  (* One EM iteration: the C E-step, then OCaml normalises the
     accumulators. *)
  let step p =
    let n = p.model.n and m = p.model.m in
    let a_acc = Array.make (n * n) 0.0 and b_acc = Array.make (n * m) 0.0 in
    let pi_acc = Array.make n 0.0 and loglik = [| 0.0 |] in
    pass_step p.table p.weights a_acc b_acc pi_acc loglik;
    let normalized acc k =
      Matrix.of_arrays (Array.init n (fun i -> normalize_with_floor (Array.sub acc (i * k) k)))
    in
    ( {
        p.model with
        a = normalized a_acc n;
        b = normalized b_acc m;
        pi = normalize_with_floor pi_acc;
      },
      loglik.(0) )
end

(* A pass of its own, released once read. *)
let with_pass t ~weighted ~extra f =
  let p = Pass.create t ~weighted ~extra in
  Fun.protect ~finally:(fun () -> Pass.release p) (fun () -> f p)

let per_symbol_scores t windows = with_pass t ~weighted:[||] ~extra:windows Pass.scores

let baum_welch_step t weighted =
  with_pass t ~weighted:(Array.of_list weighted) ~extra:[||] Pass.step

let fit ~max_iterations t weighted =
  let total_weight = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 weighted in
  let scaled_tol = 1e-4 *. Float.max 1.0 total_weight in
  let rec loop model prev_ll history iter pass =
    if iter >= max_iterations then (model, List.rev history)
    else
      let ll_trace = ref nan in
      let model', ll =
        Adprom_obs.Trace.with_span "hmm.bw_iter"
          ~attrs:(fun () ->
            [
              ("iteration", string_of_int iter);
              ("log_likelihood", Printf.sprintf "%.6f" !ll_trace);
            ])
          (fun () ->
            if iter > 0 then Pass.rebuild pass model;
            let r = Pass.step pass in
            ll_trace := snd r;
            r)
      in
      let history = ll :: history in
      match prev_ll with
      | Some p when ll -. p < scaled_tol -> (model', List.rev history)
      | Some _ | None -> loop model' (Some ll) history (iter + 1) pass
  in
  Adprom_obs.Trace.with_span "hmm.fit"
    ~attrs:(fun () ->
      [
        ("sequences", string_of_int (List.length weighted));
        ("states", string_of_int t.n);
        ("symbols", string_of_int t.m);
      ])
    (fun () ->
      with_pass t ~weighted:(Array.of_list weighted) ~extra:[||] (loop t None [] 0))
