(* Tests for the HMM library: validation, forward vs brute-force
   enumeration, Viterbi vs brute force, Baum-Welch monotonicity and
   convergence, and bit-identity of the blocked kernels (Baum-Welch,
   compiled and batch scoring) against row-at-a-time oracles. *)

module Matrix = Mlkit.Matrix
module Rng = Mlkit.Rng

let tiny () =
  (* 2 states, 3 symbols; hand-checked numbers. *)
  Hmm.create
    ~a:(Matrix.of_arrays [| [| 0.7; 0.3 |]; [| 0.4; 0.6 |] |])
    ~b:(Matrix.of_arrays [| [| 0.5; 0.4; 0.1 |]; [| 0.1; 0.3; 0.6 |] |])
    ~pi:[| 0.6; 0.4 |]

(* Brute force P(O) by enumerating all state paths. *)
let brute_force_likelihood (t : Hmm.t) obs =
  let len = Array.length obs in
  let rec paths depth =
    if depth = 0 then [ [] ]
    else List.concat_map (fun p -> List.init t.Hmm.n (fun s -> s :: p)) (paths (depth - 1))
  in
  List.fold_left
    (fun acc path ->
      let path = Array.of_list path in
      let p = ref (t.Hmm.pi.(path.(0)) *. Matrix.get t.Hmm.b path.(0) obs.(0)) in
      for step = 1 to len - 1 do
        p :=
          !p
          *. Matrix.get t.Hmm.a path.(step - 1) path.(step)
          *. Matrix.get t.Hmm.b path.(step) obs.(step)
      done;
      acc +. !p)
    0.0 (paths len)

let brute_force_viterbi (t : Hmm.t) obs =
  let len = Array.length obs in
  let rec paths depth =
    if depth = 0 then [ [] ]
    else List.concat_map (fun p -> List.init t.Hmm.n (fun s -> s :: p)) (paths (depth - 1))
  in
  List.fold_left
    (fun (best_p, best_path) path ->
      let arr = Array.of_list path in
      let p = ref (t.Hmm.pi.(arr.(0)) *. Matrix.get t.Hmm.b arr.(0) obs.(0)) in
      for step = 1 to len - 1 do
        p :=
          !p
          *. Matrix.get t.Hmm.a arr.(step - 1) arr.(step)
          *. Matrix.get t.Hmm.b arr.(step) obs.(step)
      done;
      if !p > best_p then (!p, arr) else (best_p, best_path))
    (neg_infinity, [||])
    (paths len)

let test_create_validation () =
  let bad_a = Matrix.of_arrays [| [| 0.9; 0.3 |]; [| 0.4; 0.6 |] |] in
  Alcotest.(check bool) "bad rows rejected" true
    (match
       Hmm.create ~a:bad_a
         ~b:(Matrix.of_arrays [| [| 1.0 |]; [| 1.0 |] |])
         ~pi:[| 0.5; 0.5 |]
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "uniform model valid" true
    (match Hmm.validate (Hmm.uniform ~n:3 ~m:4) with Ok () -> true | Error _ -> false);
  let rng = Rng.create 1 in
  Alcotest.(check bool) "random model valid" true
    (match Hmm.validate (Hmm.random ~rng ~n:5 ~m:7) with Ok () -> true | Error _ -> false);
  (* NaN fails every comparison, so each check must be one that NaN
     fails; infinities break the row sums *)
  let t = tiny () in
  let with_entry (tbl : Matrix.t) i v =
    let data = Array.copy tbl.Matrix.data in
    data.(i) <- v;
    { tbl with Matrix.data }
  in
  List.iter
    (fun v ->
      let rejected (t : Hmm.t) = match Hmm.validate t with Ok () -> false | Error _ -> true in
      let label = Printf.sprintf "%g" v in
      Alcotest.(check bool) (label ^ " in A rejected") true
        (rejected { t with Hmm.a = with_entry t.Hmm.a 1 v });
      Alcotest.(check bool) (label ^ " in B rejected") true
        (rejected { t with Hmm.b = with_entry t.Hmm.b 4 v });
      let pi = Array.copy t.Hmm.pi in
      pi.(0) <- v;
      Alcotest.(check bool) (label ^ " in pi rejected") true (rejected { t with Hmm.pi }))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_forward_matches_brute_force () =
  let t = tiny () in
  List.iter
    (fun obs ->
      let obs = Array.of_list obs in
      let expected = log (brute_force_likelihood t obs) in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "sequence of length %d" (Array.length obs))
        expected (Hmm.log_likelihood t obs))
    [ [ 0 ]; [ 2 ]; [ 0; 1 ]; [ 2; 2; 0 ]; [ 1; 0; 2; 1 ]; [ 0; 0; 0; 0; 0 ] ]

let test_impossible_sequence () =
  (* State emissions exclude symbol 1 entirely. *)
  let t =
    Hmm.create
      ~a:(Matrix.of_arrays [| [| 1.0 |] |])
      ~b:(Matrix.of_arrays [| [| 1.0; 0.0 |] |])
      ~pi:[| 1.0 |]
  in
  Alcotest.(check (float 0.0)) "impossible is -inf" neg_infinity (Hmm.log_likelihood t [| 0; 1 |]);
  Alcotest.(check (float 0.0)) "empty sequence is 0" 0.0 (Hmm.log_likelihood t [||])

let test_observation_range () =
  let t = tiny () in
  Alcotest.(check bool) "out-of-range observation rejected" true
    (match Hmm.log_likelihood t [| 0; 3 |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_viterbi_matches_brute_force () =
  let t = tiny () in
  List.iter
    (fun obs ->
      let obs = Array.of_list obs in
      let path, logp = Hmm.viterbi t obs in
      let bf_p, bf_path = brute_force_viterbi t obs in
      Alcotest.(check (float 1e-9)) "viterbi log-probability" (log bf_p) logp;
      Alcotest.(check (array int)) "viterbi path" bf_path path)
    [ [ 0; 1 ]; [ 2; 2; 0 ]; [ 1; 0; 2; 1 ] ]

let test_forward_backward_consistency () =
  (* Likelihood computed from backward at t=0 must agree with forward. *)
  let t = tiny () in
  let obs = [| 0; 2; 1; 1; 0 |] in
  let _, scale = Hmm.forward t obs in
  let beta = Hmm.backward t obs scale in
  (* sum_i pi_i b_i(o0) beta_hat_0(i) = P(O) / prod(scale) * ... ; with
     our scaling the identity is sum_i pi_i b_i(o0) beta0(i) = 1. *)
  let acc = ref 0.0 in
  for i = 0 to t.Hmm.n - 1 do
    acc := !acc +. (t.Hmm.pi.(i) *. Matrix.get t.Hmm.b i obs.(0) *. beta.(0).(i))
  done;
  Alcotest.(check (float 1e-9)) "backward closes the recursion" 1.0 !acc

let test_baum_welch_improves () =
  let rng = Rng.create 42 in
  let t0 = Hmm.random ~rng ~n:3 ~m:4 in
  let seqs = [ ([| 0; 1; 2; 3; 0; 1; 2; 3 |], 1.0); ([| 0; 1; 0; 1 |], 2.0) ] in
  let t1, ll1 = Hmm.baum_welch_step t0 seqs in
  let _, ll2 = Hmm.baum_welch_step t1 seqs in
  Alcotest.(check bool) "one EM step improves the likelihood" true (ll2 >= ll1 -. 1e-9)

let prop_baum_welch_monotone =
  QCheck2.Test.make ~name:"EM is monotone on random instances" ~count:30
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 2 4))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let t0 = Hmm.random ~rng ~n ~m:3 in
      let seqs =
        List.init 4 (fun i ->
            (Array.init (4 + (i mod 3)) (fun j -> (seed + i + j) mod 3), 1.0))
      in
      let t1, ll1 = Hmm.baum_welch_step t0 seqs in
      let _, ll2 = Hmm.baum_welch_step t1 seqs in
      (* The epsilon smoothing can cost a hair of likelihood; allow a
         small tolerance. *)
      ll2 >= ll1 -. 1e-3)

let test_fit_learns_pattern () =
  (* Alternating observations: a 2-state model must learn it and assign
     much higher likelihood to alternation than to repetition. *)
  let rng = Rng.create 7 in
  let t0 = Hmm.random ~rng ~n:2 ~m:2 in
  let train = [ (Array.init 20 (fun i -> i mod 2), 1.0) ] in
  let t, history = Hmm.fit ~max_iterations:60 t0 train in
  Alcotest.(check bool) "fit produced iterations" true (List.length history > 0);
  let good = Hmm.per_symbol_score t (Array.init 10 (fun i -> i mod 2)) in
  let bad = Hmm.per_symbol_score t (Array.make 10 0) in
  Alcotest.(check bool) "alternation preferred after training" true (good > bad +. 0.5)

let test_per_symbol_score () =
  let t = tiny () in
  let obs = [| 0; 1; 2 |] in
  Alcotest.(check (float 1e-9)) "score is loglik / length"
    (Hmm.log_likelihood t obs /. 3.0)
    (Hmm.per_symbol_score t obs)

let test_sample_distribution () =
  (* A deterministic cycle model must sample its cycle. *)
  let t =
    Hmm.create
      ~a:(Matrix.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |])
      ~b:(Matrix.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |])
      ~pi:[| 1.0; 0.0 |]
  in
  let rng = Rng.create 5 in
  let obs = Hmm.sample ~rng t 8 in
  Alcotest.(check (array int)) "alternating sample" [| 0; 1; 0; 1; 0; 1; 0; 1 |] obs;
  Alcotest.(check (float 1e-9)) "sample has probability 1" 0.0 (Hmm.log_likelihood t obs)

let test_sample_scores_high () =
  let rng = Rng.create 17 in
  let t = Hmm.random ~rng ~n:3 ~m:5 in
  let own = Hmm.per_symbol_score t (Hmm.sample ~rng t 40) in
  (* Uniform noise over the alphabet should look worse on average. *)
  let noise = Array.init 40 (fun i -> (i * 7) mod 5) in
  let other = Hmm.per_symbol_score t noise in
  Alcotest.(check bool) "finite scores" true (Float.is_finite own && Float.is_finite other)

let test_step_surprisals () =
  let t = tiny () in
  let obs = [| 0; 1; 2; 0 |] in
  let s = Hmm.step_surprisals t obs in
  Alcotest.(check int) "one surprisal per step" 4 (Array.length s);
  let total = Array.fold_left ( +. ) 0.0 s in
  Alcotest.(check (float 1e-9)) "surprisals sum to -loglik" (-.Hmm.log_likelihood t obs) total

let test_stochastic_after_em () =
  let rng = Rng.create 9 in
  let t0 = Hmm.random ~rng ~n:3 ~m:3 in
  let t1, _ = Hmm.baum_welch_step t0 [ ([| 0; 1; 2; 0 |], 1.0) ] in
  Alcotest.(check bool) "re-estimated model is valid" true
    (match Hmm.validate t1 with Ok () -> true | Error _ -> false)

(* --- bit-identity oracles -------------------------------------------- *)

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
let same_floats xs ys = Array.length xs = Array.length ys && Array.for_all2 same_bits xs ys

(* The textbook Baum-Welch step over [Hmm.forward]/[Hmm.backward], one
   row at a time: the oracle the blocked [Hmm.baum_welch_step] must
   match bit for bit. *)
let reference_normalize_with_floor row =
  let k = Array.length row in
  let s = Array.fold_left ( +. ) 0.0 row in
  if s <= 0.0 then Array.make k (1.0 /. float_of_int k)
  else
    let denom = s +. (1e-6 *. float_of_int k) in
    Array.map (fun v -> (v +. 1e-6) /. denom) row

let reference_baum_welch_step (t : Hmm.t) weighted =
  let n = t.Hmm.n and m = t.Hmm.m in
  let adata = t.Hmm.a.Matrix.data and bdata = t.Hmm.b.Matrix.data in
  let a_acc = Array.make_matrix n n 0.0 in
  let b_acc = Array.make_matrix n m 0.0 in
  let pi_acc = Array.make n 0.0 in
  let total_loglik = ref 0.0 in
  let gamma_u = Array.make n 0.0 in
  let bb = Array.make n 0.0 in
  let accumulate (obs, weight) =
    let len = Array.length obs in
    if len > 0 then begin
      let alpha, scale = Hmm.forward t obs in
      if not (Array.exists (fun s -> s <= 0.0) scale) then begin
        total_loglik :=
          !total_loglik +. (weight *. Array.fold_left (fun acc s -> acc +. log s) 0.0 scale);
        let beta = Hmm.backward t obs scale in
        for step = 0 to len - 1 do
          let s = ref 0.0 in
          for i = 0 to n - 1 do
            let u = alpha.(step).(i) *. beta.(step).(i) in
            gamma_u.(i) <- u;
            s := !s +. u
          done;
          if !s > 0.0 then
            for i = 0 to n - 1 do
              let g = gamma_u.(i) /. !s in
              b_acc.(i).(obs.(step)) <- b_acc.(i).(obs.(step)) +. (weight *. g);
              if step = 0 then pi_acc.(i) <- pi_acc.(i) +. (weight *. g)
            done
        done;
        for step = 0 to len - 2 do
          let next = beta.(step + 1) and cur = alpha.(step) in
          let o = obs.(step + 1) in
          for j = 0 to n - 1 do
            bb.(j) <- bdata.((j * m) + o) *. next.(j)
          done;
          let s = ref 0.0 in
          for i = 0 to n - 1 do
            let ai = cur.(i) in
            if ai > 0.0 then begin
              let acc = ref 0.0 in
              for j = 0 to n - 1 do
                acc := !acc +. (adata.((i * n) + j) *. bb.(j))
              done;
              s := !s +. (ai *. !acc)
            end
          done;
          if !s > 0.0 then
            for i = 0 to n - 1 do
              let coef = weight *. cur.(i) /. !s in
              if coef > 0.0 then
                for j = 0 to n - 1 do
                  a_acc.(i).(j) <- a_acc.(i).(j) +. (coef *. adata.((i * n) + j) *. bb.(j))
                done
            done
        done
      end
    end
  in
  List.iter accumulate weighted;
  let a' = Matrix.of_arrays (Array.map reference_normalize_with_floor a_acc) in
  let b' = Matrix.of_arrays (Array.map reference_normalize_with_floor b_acc) in
  let pi' = reference_normalize_with_floor pi_acc in
  ({ t with Hmm.a = a'; b = b'; pi = pi' }, !total_loglik)

(* A random model with zero entries (at rate [sparsity]) and, now and
   then, an all-zero row, built as a record: such a model fails
   [Hmm.create]'s row-sum check but makes some sequences impossible,
   which the step must skip. *)
let sparse_model rng ~n ~m ~sparsity =
  let row k =
    if Rng.float rng 1.0 < 0.1 then Array.make k 0.0
    else begin
      let r =
        Array.init k (fun _ ->
            if Rng.float rng 1.0 < sparsity then 0.0 else 0.05 +. Rng.float rng 1.0)
      in
      if Array.for_all (fun v -> v = 0.0) r then r.(Rng.int rng k) <- 1.0;
      let s = Array.fold_left ( +. ) 0.0 r in
      Array.map (fun v -> v /. s) r
    end
  in
  {
    Hmm.n;
    m;
    a = Matrix.of_arrays (Array.init n (fun _ -> row n));
    b = Matrix.of_arrays (Array.init n (fun _ -> row m));
    pi = row n;
  }

(* The kernels are built two and four lanes wide, and either build may
   run. n in 1..70 covers every n mod 32 both below and past one full
   32-column tile, up to two full tiles: so every path of the 4-lane
   build (the 32-, 16-, 8- and 4-column tiles, the pair tile and the
   last odd column) and of the 2-lane build (its 16-, 8-, 4- and
   2-column tiles and odd column), with n < 4 reaching the pair tile and
   the odd column alone. Lengths 1..20 give a varying number of
   contributing steps per row; weights are not all 1. *)
let state_counts = QCheck2.Gen.int_range 1 70

let model_and_sequences_gen =
  QCheck2.Gen.(
    map
      (fun (seed, n, m) ->
        let rng = Rng.create seed in
        let sparsity = [| 0.0; 0.15; 0.4 |].(Rng.int rng 3) in
        let model = sparse_model rng ~n ~m ~sparsity in
        let seqs =
          List.init
            (1 + Rng.int rng 8)
            (fun _ ->
              ( Array.init (1 + Rng.int rng 20) (fun _ -> Rng.int rng m),
                0.25 +. Rng.float rng 4.0 ))
        in
        (model, seqs))
      (triple (int_range 0 1_000_000) state_counts (int_range 1 6)))

let prop_baum_welch_matches_reference =
  QCheck2.Test.make ~name:"baum_welch_step = row-at-a-time reference, bit for bit" ~count:300
    model_and_sequences_gen (fun (model, seqs) ->
      let t1, ll1 = Hmm.baum_welch_step model seqs in
      let t2, ll2 = reference_baum_welch_step model seqs in
      same_bits ll1 ll2
      && same_floats t1.Hmm.a.Matrix.data t2.Hmm.a.Matrix.data
      && same_floats t1.Hmm.b.Matrix.data t2.Hmm.b.Matrix.data
      && same_floats t1.Hmm.pi t2.Hmm.pi)

(* The C E-step cuts the windows into blocks of about 1 MiB of scratch
   (1212 steps at n = 36, 1091 at n = 40) and shares each block's
   windows and state rows among the allowed CPUs. At n >= 36, 120 to 150
   sequences of length 0..20 cross one or two block boundaries; none or
   one sequence leaves fewer windows than threads. Weights include 0,
   whole multiplicities and fractions; sparse models make some windows
   impossible. The result must depend on none of this. *)
let blocked_step_gen =
  QCheck2.Gen.(
    map
      (fun (seed, (n, m, count)) ->
        let rng = Rng.create seed in
        let sparsity = [| 0.0; 0.15; 0.4 |].(Rng.int rng 3) in
        let model = sparse_model rng ~n ~m ~sparsity in
        let weight () =
          match Rng.int rng 4 with
          | 0 -> float_of_int (1 + Rng.int rng 5)
          | 1 -> if Rng.int rng 8 = 0 then 0.0 else 1.0
          | _ -> 0.25 +. Rng.float rng 4.0
        in
        let seqs =
          List.init count (fun _ ->
              let obs = Array.init (Rng.int rng 21) (fun _ -> Rng.int rng m) in
              (obs, weight ()))
        in
        (model, seqs))
      (pair (int_range 0 1_000_000)
         (oneof
            [
              triple (int_range 1 40) (int_range 1 6) (int_range 0 1);
              triple (int_range 1 40) (int_range 1 6) (int_range 2 20);
              triple (int_range 36 40) (int_range 1 6) (int_range 120 150);
            ])))

let prop_blocked_step_matches_reference =
  QCheck2.Test.make ~name:"baum_welch_step across blocks and schedules = reference, bit for bit"
    ~count:100 blocked_step_gen (fun (model, seqs) ->
      let t1, ll1 = Hmm.baum_welch_step model seqs in
      let t2, ll2 = reference_baum_welch_step model seqs in
      same_bits ll1 ll2
      && same_floats t1.Hmm.a.Matrix.data t2.Hmm.a.Matrix.data
      && same_floats t1.Hmm.b.Matrix.data t2.Hmm.b.Matrix.data
      && same_floats t1.Hmm.pi t2.Hmm.pi)

(* A sequence longer than a block's step budget (1091 steps at n = 40)
   gets a block of its own, between blocks of short ones. *)
let test_long_sequence_own_block () =
  let rng = Rng.create 17 in
  let model = Hmm.random ~rng ~n:40 ~m:5 in
  let short () = (Array.init 15 (fun _ -> Rng.int rng 5), 2.0) in
  let seqs =
    List.init 80 (fun _ -> short ())
    @ [ (Array.init 1500 (fun _ -> Rng.int rng 5), 0.5) ]
    @ List.init 80 (fun _ -> short ())
  in
  let t1, ll1 = Hmm.baum_welch_step model seqs in
  let t2, ll2 = reference_baum_welch_step model seqs in
  Alcotest.(check bool) "bit for bit the reference" true
    (same_bits ll1 ll2
    && same_floats t1.Hmm.a.Matrix.data t2.Hmm.a.Matrix.data
    && same_floats t1.Hmm.b.Matrix.data t2.Hmm.b.Matrix.data
    && same_floats t1.Hmm.pi t2.Hmm.pi)

let prop_compiled_matches_reference =
  QCheck2.Test.make ~name:"Compiled.log_likelihood = log_likelihood, bit for bit" ~count:300
    model_and_sequences_gen (fun (model, seqs) ->
      let c = Hmm.Compiled.of_model model in
      List.for_all
        (fun (obs, _) ->
          same_bits (Hmm.Compiled.log_likelihood c obs) (Hmm.log_likelihood model obs)
          && same_bits (Hmm.Compiled.per_symbol_score c obs) (Hmm.per_symbol_score model obs))
        seqs)

(* Windows over a 2- or 3-symbol alphabet, so that many share prefixes,
   with duplicates, prefixes and extensions of earlier windows, and the
   empty window. The batch is cut into fixed runs of 32 sorted windows
   shared among the allowed CPUs: counts from 1 to 3 leave fewer
   windows than threads, and up to 200 give several runs. State counts
   reach every tile path of both builds, as above. Sparse models make
   some prefixes impossible. *)
let window_batch_gen =
  QCheck2.Gen.(
    map
      (fun (seed, (n, m, count)) ->
        let rng = Rng.create seed in
        let sparsity = [| 0.0; 0.15; 0.4 |].(Rng.int rng 3) in
        let model = sparse_model rng ~n ~m ~sparsity in
        let fresh () = Array.init (Rng.int rng 13) (fun _ -> Rng.int rng m) in
        let windows = Array.make count [||] in
        for k = 1 to count - 1 do
          let earlier = windows.(Rng.int rng k) in
          windows.(k) <-
            (match Rng.int rng 4 with
            | 0 -> earlier
            | 1 -> Array.sub earlier 0 (Rng.int rng (Array.length earlier + 1))
            | 2 -> Array.append earlier (fresh ())
            | _ -> fresh ())
        done;
        Rng.shuffle rng windows;
        (model, windows))
      (pair (int_range 0 1_000_000)
         (oneof
            [
              triple state_counts (int_range 2 3) (int_range 1 3);
              triple state_counts (int_range 2 3) (int_range 4 200);
            ])))

let prop_per_symbol_scores_matches_reference =
  QCheck2.Test.make ~name:"per_symbol_scores = per_symbol_score per window, bit for bit"
    ~count:300 window_batch_gen (fun (model, windows) ->
      same_floats
        (Hmm.per_symbol_scores model windows)
        (Array.map (Hmm.per_symbol_score model) windows))

(* After a 2, the walk is in state 1, which never emits 1 and never
   leaves: [0; 2; 1] and everything under it is impossible at step 2.
   Sorted, the batch reads [||], [0; 1; 1] (a possible sibling that
   diverges at step 1), [0; 2] (a possible prefix), [0; 2; 0], then
   [0; 2; 1], [0; 2; 1; 0] and [0; 2; 1; 2], which must all read -inf
   from the one pass that found the impossible step. *)
let test_per_symbol_scores_impossible_prefix () =
  let t =
    Hmm.create
      ~a:(Matrix.of_arrays [| [| 0.5; 0.5 |]; [| 0.0; 1.0 |] |])
      ~b:(Matrix.of_arrays [| [| 0.5; 0.5; 0.0 |]; [| 0.5; 0.0; 0.5 |] |])
      ~pi:[| 0.5; 0.5 |]
  in
  let windows =
    [| [| 0; 2; 1; 0 |]; [| 0; 1; 1 |]; [| 0; 2; 1; 2 |]; [| 0; 2 |]; [||]; [| 0; 2; 1 |];
       [| 0; 2; 0 |] |]
  in
  let scores = Hmm.per_symbol_scores t windows in
  Alcotest.(check bool) "bit for bit per window" true
    (same_floats scores (Array.map (Hmm.per_symbol_score t) windows));
  Alcotest.(check (list bool)) "finite where possible"
    [ false; true; false; true; true; false; true ]
    (Array.to_list (Array.map Float.is_finite scores));
  Alcotest.(check (float 0.0)) "empty window" 0.0 scores.(4)

(* The range check runs in OCaml, before the C call starts a thread. *)
let test_per_symbol_scores_rejects_out_of_range () =
  let t = tiny () in
  let raises windows =
    match Hmm.per_symbol_scores t windows with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "observation past the alphabet" true
    (raises [| [| 0; 1 |]; [| 2; 3 |] |]);
  Alcotest.(check bool) "negative observation" true (raises [| [| -1 |] |]);
  Alcotest.(check bool) "in-range windows accepted" false (raises [| [| 0; 2 |]; [||] |]);
  Alcotest.(check bool) "inconsistent dimensions" true
    (match Hmm.per_symbol_scores { t with Hmm.m = 4 } [| [| 0 |] |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Sparse models make some windows impossible part-way through: the
   compiled surprisals must then turn infinite at the same step. *)
let prop_compiled_step_surprisals_matches_reference =
  QCheck2.Test.make ~name:"Compiled.step_surprisals = step_surprisals, bit for bit" ~count:300
    model_and_sequences_gen (fun (model, seqs) ->
      let c = Hmm.Compiled.of_model model in
      List.for_all
        (fun (obs, _) ->
          same_floats (Hmm.Compiled.step_surprisals c obs) (Hmm.step_surprisals model obs))
        (([||], 1.0) :: seqs))

let test_compiled_step_surprisals_impossible_suffix () =
  (* symbol 1 is never emitted: the window turns impossible at step 2 *)
  let t =
    Hmm.create
      ~a:(Matrix.of_arrays [| [| 0.5; 0.5 |]; [| 0.5; 0.5 |] |])
      ~b:(Matrix.of_arrays [| [| 1.0; 0.0 |]; [| 1.0; 0.0 |] |])
      ~pi:[| 0.5; 0.5 |]
  in
  let obs = [| 0; 0; 1; 0 |] in
  let s = Hmm.Compiled.step_surprisals (Hmm.Compiled.of_model t) obs in
  Alcotest.(check bool) "finite prefix" true (Float.is_finite s.(0) && Float.is_finite s.(1));
  Alcotest.(check bool) "infinite from step 2" true (s.(2) = infinity && s.(3) = infinity);
  Alcotest.(check bool) "bit for bit the reference" true
    (same_floats s (Hmm.step_surprisals t obs))

let test_nan_scale_is_impossible () =
  (* a non-finite emission makes the scale NaN wherever symbol 1 is
     read; [Hmm.create] rejects such a model, so it is built as a
     record *)
  let t =
    {
      Hmm.n = 2;
      m = 2;
      a = Matrix.of_arrays [| [| 0.5; 0.5 |]; [| 0.5; 0.5 |] |];
      b = Matrix.of_arrays [| [| 1.0; Float.nan |]; [| 1.0; Float.nan |] |];
      pi = [| 0.5; 0.5 |];
    }
  in
  let c = Hmm.Compiled.of_model t in
  List.iter
    (fun obs ->
      let label = Printf.sprintf "length %d" (Array.length obs) in
      Alcotest.(check (float 0.0)) (label ^ ": reference") neg_infinity (Hmm.log_likelihood t obs);
      Alcotest.(check (float 0.0)) (label ^ ": compiled") neg_infinity
        (Hmm.Compiled.log_likelihood c obs);
      Alcotest.(check bool) (label ^ ": surprisals bit for bit") true
        (same_floats (Hmm.Compiled.step_surprisals c obs) (Hmm.step_surprisals t obs)))
    [ [| 1 |]; [| 0; 0; 1 |]; [| 0; 1; 0 |] ]

(* The real size: banking's 126-state model, as pCTM initialisation
   leaves it (sparse A and B) and after one round (dense), over
   banking's deduplicated windows. 126 = 7·16 + 14, so every step also
   takes the kernels' 8-, 4- and 2-wide remainder blocks. *)
let test_baum_welch_banking_matches_reference () =
  let dataset = Adprom.Pipeline.collect (Dataset.Ca_banking.app ()) in
  List.iter
    (fun rounds ->
      let params = { Adprom.Pipeline.adprom_params with Adprom.Profile.max_rounds = rounds } in
      let profile = Adprom.Pipeline.train ~params dataset in
      let model = profile.Adprom.Profile.model in
      let index = Analysis.Symbol.Table.find_opt profile.Adprom.Profile.obs_index in
      let weighted =
        List.filter_map
          (fun (w, weight) ->
            Option.map (fun codes -> (codes, weight)) (Adprom.Window.encode ~index w))
          (Adprom.Window.dedup dataset.Adprom.Pipeline.windows)
      in
      let label = Printf.sprintf "after %d rounds" rounds in
      Alcotest.(check int) (label ^ ": states") 126 model.Hmm.n;
      let t1, ll1 = Hmm.baum_welch_step model weighted in
      let t2, ll2 = reference_baum_welch_step model weighted in
      Alcotest.(check bool) (label ^ ": bit for bit the reference") true
        (same_bits ll1 ll2
        && same_floats t1.Hmm.a.Matrix.data t2.Hmm.a.Matrix.data
        && same_floats t1.Hmm.b.Matrix.data t2.Hmm.b.Matrix.data
        && same_floats t1.Hmm.pi t2.Hmm.pi))
    [ 0; 1 ]

let test_baum_welch_rejects_out_of_range () =
  (* symbol 1 is never emitted, so the first sequence is impossible and
     skipped; the second is still range-checked *)
  let t =
    Hmm.create
      ~a:(Matrix.of_arrays [| [| 0.5; 0.5 |]; [| 0.5; 0.5 |] |])
      ~b:(Matrix.of_arrays [| [| 1.0; 0.0 |]; [| 1.0; 0.0 |] |])
      ~pi:[| 0.5; 0.5 |]
  in
  let raises seqs =
    match Hmm.baum_welch_step t seqs with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "observation past the alphabet" true
    (raises [ ([| 1; 0 |], 1.0); ([| 0; 2 |], 1.0) ]);
  Alcotest.(check bool) "negative observation" true (raises [ ([| -1 |], 2.0) ]);
  Alcotest.(check bool) "past an impossible prefix" true (raises [ ([| 1; 5 |], 1.0) ]);
  Alcotest.(check bool) "in-range sequences accepted" false
    (raises [ ([| 1; 0 |], 1.0); ([| 0; 0 |], 1.0) ]);
  (* the C E-step reads the tables by [n] and [m]: a record whose
     tables do not match them is refused before the call *)
  Alcotest.(check bool) "inconsistent dimensions" true
    (match Hmm.baum_welch_step { t with Hmm.m = 3 } [ ([| 0 |], 1.0) ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  Alcotest.run "hmm"
    [
      ( "model",
        [
          Alcotest.test_case "validation" `Quick test_create_validation;
          Alcotest.test_case "observation range" `Quick test_observation_range;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "forward = brute force" `Quick test_forward_matches_brute_force;
          Alcotest.test_case "impossible / empty sequences" `Quick test_impossible_sequence;
          Alcotest.test_case "forward/backward consistency" `Quick test_forward_backward_consistency;
          Alcotest.test_case "per-symbol score" `Quick test_per_symbol_score;
        ] );
      ( "decoding",
        [ Alcotest.test_case "viterbi = brute force" `Quick test_viterbi_matches_brute_force ] );
      ( "sampling",
        [
          Alcotest.test_case "deterministic cycle" `Quick test_sample_distribution;
          Alcotest.test_case "samples score finitely" `Quick test_sample_scores_high;
          Alcotest.test_case "step surprisals decompose loglik" `Quick test_step_surprisals;
        ] );
      ( "learning",
        [
          Alcotest.test_case "one EM step improves" `Quick test_baum_welch_improves;
          Alcotest.test_case "EM keeps the model stochastic" `Quick test_stochastic_after_em;
          Alcotest.test_case "fit learns an alternating pattern" `Quick test_fit_learns_pattern;
          QCheck_alcotest.to_alcotest prop_baum_welch_monotone;
          Alcotest.test_case "EM rejects out-of-range observations" `Quick
            test_baum_welch_rejects_out_of_range;
          QCheck_alcotest.to_alcotest prop_baum_welch_matches_reference;
          QCheck_alcotest.to_alcotest prop_blocked_step_matches_reference;
          Alcotest.test_case "a sequence longer than a block" `Quick
            test_long_sequence_own_block;
          Alcotest.test_case "baum_welch_step on banking = reference, bit for bit" `Quick
            test_baum_welch_banking_matches_reference;
          QCheck_alcotest.to_alcotest prop_compiled_matches_reference;
          QCheck_alcotest.to_alcotest prop_compiled_step_surprisals_matches_reference;
          QCheck_alcotest.to_alcotest prop_per_symbol_scores_matches_reference;
          Alcotest.test_case "per_symbol_scores under an impossible prefix" `Quick
            test_per_symbol_scores_impossible_prefix;
          Alcotest.test_case "per_symbol_scores rejects out-of-range observations" `Quick
            test_per_symbol_scores_rejects_out_of_range;
          Alcotest.test_case "Compiled.step_surprisals past an impossible step" `Quick
            test_compiled_step_surprisals_impossible_suffix;
          Alcotest.test_case "a NaN scale is impossible, compiled and reference" `Quick
            test_nan_scale_is_impossible;
        ] );
    ]
