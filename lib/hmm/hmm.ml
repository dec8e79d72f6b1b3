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

(* The compiled kernels read every table as one float array per row:
   the transition rows, and for the backward pass their transpose. *)

(* Rows of A. *)
let transition_rows t = Array.init t.n (fun i -> Array.sub t.a.Matrix.data (i * t.n) t.n)

(* Columns of A: row [j] holds [a_ij] for every state [i]. *)
let transition_columns t =
  let adata = t.a.Matrix.data in
  Array.init t.n (fun j -> Array.init t.n (fun i -> adata.((i * t.n) + j)))

(* Emissions transposed: row [o] holds [b_i(o)] for every state [i]. *)
let emissions_by_symbol t =
  let bdata = t.b.Matrix.data in
  Array.init t.m (fun o -> Array.init t.n (fun i -> bdata.((i * t.m) + o)))

(* The O(n²)-per-step kernels, in [hmm_kernels.c]. Each output element
   adds its terms in the reference's order, so results are bit for bit
   those of the row-at-a-time loops. *)

(* [propagate a src dst]: [dst.(j) <- Σ_i src.(i) · a.(i).(j)] over the
   rows whose weight is positive, in increasing [i], each sum starting
   from 0.0: the transition step of [forward]. *)
external propagate : float array array -> float array -> float array -> unit
  = "adprom_hmm_propagate"
[@@noalloc]

(* [row_sums at x sums]: [sums.(i) <- Σ_j a_ij · x.(j)] in increasing
   [j], from the columns [at] of A: the inner sums of [backward]. *)
external row_sums : float array array -> float array -> float array -> unit
  = "adprom_hmm_row_sums"
[@@noalloc]

(* [xi_row steps coef bb ai row]: for every [s < steps] with
   [coef.(s) > 0], in increasing [s],
   [row.(j) <- row.(j) + (coef.(s) · ai.(j)) · bb.(s).(j)]. *)
external xi_row :
  int -> float array -> float array array -> float array -> float array -> unit
  = "adprom_hmm_xi_row"
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
    a : float array array;  (* rows of A *)
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
      a = transition_rows model;
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

(* One EM iteration. Its scratch tables (forward, backward, backward row
   sums, ξ factors, scales) are sized for the longest sequence and
   allocated once per call, one array per time step. Every accumulator
   receives the same floating-point operations, in the same order, as
   the textbook step over [forward]/[backward], so the re-estimated
   model is bit-for-bit the same:
   - the forward rows come from [propagate];
   - the backward pass takes each step's row sums from [row_sums] and
     keeps them before the [1 / c_t] scale: such a sum is the inner sum
     of the ξ normaliser of the same step, which then costs O(n)
     instead of O(n²);
   - each [a_acc] row takes the terms of its contributing steps in step
     order, one [xi_row] call per row and sequence. *)
let baum_welch_step t weighted =
  let n = t.n and m = t.m in
  let a = transition_rows t and at = transition_columns t and bt = emissions_by_symbol t in
  let a_acc = Array.make_matrix n n 0.0 in
  let b_acc = Array.make_matrix n m 0.0 in
  let pi_acc = Array.make n 0.0 in
  let total_loglik = ref 0.0 in
  let maxlen = List.fold_left (fun acc (obs, _) -> max acc (Array.length obs)) 0 weighted in
  let alpha = Array.make_matrix maxlen n 0.0 in
  let beta = Array.make_matrix maxlen n 0.0 in
  (* [rsum.(step).(i)] = Σ_j a_ij · bb.(step).(j), before the backward scale *)
  let rsum = Array.make_matrix maxlen n 0.0 in
  (* ξ factors: [bb.(step).(j)] = b_j(o_{step+1}) · β_{step+1}(j) *)
  let bb = Array.make_matrix maxlen n 0.0 in
  let scale = Array.make maxlen 0.0 in
  let xi_norm = Array.make maxlen 0.0 in
  let gamma_u = Array.make n 0.0 in
  (* one row's ξ coefficients per step; 0.0 where a step adds nothing *)
  let coefs = Array.make maxlen 0.0 in
  (* [forward]'s scaled pass into [alpha]/[scale]; once a prefix is
     impossible the remaining scales are zero, as there. *)
  let forward_into obs len =
    let row0 = alpha.(0) and b0 = bt.(obs.(0)) in
    let s0 = ref 0.0 in
    for i = 0 to n - 1 do
      let v = t.pi.(i) *. Array.unsafe_get b0 i in
      Array.unsafe_set row0 i v;
      s0 := !s0 +. v
    done;
    scale.(0) <- !s0;
    if !s0 > 0.0 then
      for i = 0 to n - 1 do
        Array.unsafe_set row0 i (Array.unsafe_get row0 i /. !s0)
      done;
    let step = ref 1 in
    while !step < len do
      let st = !step in
      if scale.(st - 1) > 0.0 then begin
        let cur = alpha.(st) and b = bt.(obs.(st)) in
        propagate a alpha.(st - 1) cur;
        let total = ref 0.0 in
        for j = 0 to n - 1 do
          let v = Array.unsafe_get cur j *. Array.unsafe_get b j in
          Array.unsafe_set cur j v;
          total := !total +. v
        done;
        scale.(st) <- !total;
        if !total > 0.0 then
          for j = 0 to n - 1 do
            Array.unsafe_set cur j (Array.unsafe_get cur j /. !total)
          done;
        incr step
      end
      else begin
        Array.fill scale st (len - st) 0.0;
        step := len
      end
    done
  in
  (* Runs only when no scale is [<= 0], so [backward]'s guards have
     nothing to skip. *)
  let backward_into obs len =
    let last = len - 1 in
    Array.fill beta.(last) 0 n (1.0 /. scale.(last));
    for step = last - 1 downto 0 do
      let x = bb.(step) and next = beta.(step + 1) and b = bt.(obs.(step + 1)) in
      for j = 0 to n - 1 do
        Array.unsafe_set x j (Array.unsafe_get b j *. Array.unsafe_get next j)
      done;
      let sums = rsum.(step) and cur = beta.(step) in
      row_sums at x sums;
      let inv = 1.0 /. scale.(step) in
      for i = 0 to n - 1 do
        Array.unsafe_set cur i (Array.unsafe_get sums i *. inv)
      done
    done
  in
  let accumulate (obs, weight) =
    let len = Array.length obs in
    if len > 0 then begin
      check_observations t obs;
      forward_into obs len;
      let impossible = ref false in
      for step = 0 to len - 1 do
        if scale.(step) <= 0.0 then impossible := true
      done;
      if not !impossible then begin
        let ll = ref 0.0 in
        for step = 0 to len - 1 do
          ll := !ll +. log scale.(step)
        done;
        total_loglik := !total_loglik +. (weight *. !ll);
        backward_into obs len;
        (* gamma, normalized explicitly per step *)
        for step = 0 to len - 1 do
          let al = alpha.(step) and be = beta.(step) in
          let s = ref 0.0 in
          for i = 0 to n - 1 do
            let u = Array.unsafe_get al i *. Array.unsafe_get be i in
            gamma_u.(i) <- u;
            s := !s +. u
          done;
          if !s > 0.0 then begin
            let o = obs.(step) in
            for i = 0 to n - 1 do
              let g = gamma_u.(i) /. !s in
              b_acc.(i).(o) <- b_acc.(i).(o) +. (weight *. g);
              if step = 0 then pi_acc.(i) <- pi_acc.(i) +. (weight *. g)
            done
          end
        done;
        (* xi normaliser per step, from the backward row sums *)
        for step = 0 to len - 2 do
          let al = alpha.(step) and sums = rsum.(step) in
          let s = ref 0.0 in
          for i = 0 to n - 1 do
            let ai = Array.unsafe_get al i in
            if ai > 0.0 then s := !s +. (ai *. Array.unsafe_get sums i)
          done;
          xi_norm.(step) <- !s
        done;
        (* xi: row i of [a_acc] takes (coef · a_ij) · bb_j from every
           step with a positive coefficient, in step order *)
        for i = 0 to n - 1 do
          let any = ref false in
          for step = 0 to len - 2 do
            let s = xi_norm.(step) in
            let coef = if s > 0.0 then weight *. alpha.(step).(i) /. s else 0.0 in
            if coef > 0.0 then any := true;
            coefs.(step) <- coef
          done;
          if !any then xi_row (len - 1) coefs bb a.(i) a_acc.(i)
        done
      end
    end
  in
  List.iter accumulate weighted;
  let a' = Matrix.of_arrays (Array.map normalize_with_floor a_acc) in
  let b' = Matrix.of_arrays (Array.map normalize_with_floor b_acc) in
  let pi' = normalize_with_floor pi_acc in
  ({ t with a = a'; b = b'; pi = pi' }, !total_loglik)

let fit ?(max_iterations = 50) ?(tolerance = 1e-4) t weighted =
  let total_weight = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 weighted in
  let scaled_tol = tolerance *. Float.max 1.0 total_weight in
  let rec loop model prev_ll history iter =
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
            let r = baum_welch_step model weighted in
            ll_trace := snd r;
            r)
      in
      let history = ll :: history in
      match prev_ll with
      | Some p when ll -. p < scaled_tol -> (model', List.rev history)
      | Some _ | None -> loop model' (Some ll) history (iter + 1)
  in
  Adprom_obs.Trace.with_span "hmm.fit"
    ~attrs:(fun () ->
      [
        ("sequences", string_of_int (List.length weighted));
        ("states", string_of_int t.n);
        ("symbols", string_of_int t.m);
      ])
    (fun () -> loop t None [] 0)
