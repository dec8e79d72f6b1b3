(* The compiled scoring engine (Adprom.Scoring) against its
   specification (Detector.reference_classify): QCheck2 equivalence on
   random profiles and windows — flag, bit-for-bit score, unknown
   symbol/pair — including memo-hit re-scores and post-extend engines,
   plus the streaming ring against the same specification (thresholds
   moved mid-stream, memo evictions) and unit tests for the LRU memo
   and threshold invalidation. *)

module Scoring = Adprom.Scoring
module Detector = Adprom.Detector
module Profile = Adprom.Profile
module Window = Adprom.Window
module Reduction = Adprom.Reduction
module Symbol = Analysis.Symbol

(* --- random profiles built directly (training is too slow per case) -------- *)

let mk_symbol ~labeled i =
  if labeled then
    Symbol.Lib { name = Printf.sprintf "call%d" i; label = Some i; site = None }
  else Symbol.lib (Printf.sprintf "call%d" i)

let make_profile ~seed ~m ~n ~use_labels ~track_callers =
  let alphabet =
    (* a label-free view never has labeled symbols in its alphabet
       (training strips them before alphabet construction) *)
    Array.init m (fun i -> mk_symbol ~labeled:(use_labels && i mod 3 = 0) i)
  in
  let obs_index = Symbol.Table.create m in
  Array.iteri (fun i s -> Symbol.Table.replace obs_index s i) alphabet;
  let rng = Mlkit.Rng.create (seed + 1) in
  let model = Hmm.random ~rng ~n ~m in
  let known_pairs = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      if (seed + i) mod 2 = 0 then
        Hashtbl.replace known_pairs (Printf.sprintf "c%d" (i mod 4), s) ())
    alphabet;
  {
    Profile.params =
      { Profile.default_params with Profile.use_labels; track_callers };
    alphabet;
    obs_index;
    model;
    threshold = -.float_of_int (1 + (seed mod 7));
    clustering =
      {
        Reduction.sites = alphabet;
        assignment = Array.make m 0;
        states = n;
        reduced = false;
      };
    known_pairs;
    csds_history = [];
    rounds_run = 0;
  }

(* window specs: per position, a symbol code and a caller id. Codes -1
   and -2 are foreign symbols (unlabeled / labeled) the profile never
   saw — the unknown-symbol path, which must bypass the memo. *)
let window_of_spec alphabet spec =
  let m = Array.length alphabet in
  let sym = function
    | -1 -> Symbol.lib "alien"
    | -2 -> Symbol.Lib { name = "alien_out"; label = Some 1; site = None }
    | s -> Symbol.observable alphabet.(s mod m)
  in
  {
    Window.obs = Array.of_list (List.map (fun (s, _) -> sym s) spec);
    callers =
      Array.of_list (List.map (fun (_, c) -> Printf.sprintf "c%d" c) spec);
  }

let verdict_eq (a : Detector.verdict) (b : Detector.verdict) =
  a.Detector.flag = b.Detector.flag
  && (a.Detector.score = b.Detector.score
     || (Float.is_nan a.Detector.score && Float.is_nan b.Detector.score))
  && a.Detector.unknown_symbol = b.Detector.unknown_symbol
  && a.Detector.unknown_pair = b.Detector.unknown_pair

let cfg_gen =
  QCheck2.Gen.(
    quad (int_bound 9999) (int_range 3 8) (int_range 2 5) (pair bool bool))

let specs_gen =
  QCheck2.Gen.(
    list_size (int_range 1 8)
      (list_size (int_range 0 25) (pair (int_range (-2) 9) (int_bound 3))))

let print_case ((seed, m, n, (ul, tc)), specs) =
  Printf.sprintf "seed=%d m=%d n=%d use_labels=%b track_callers=%b windows=%s"
    seed m n ul tc
    (String.concat "+" (List.map (fun s -> string_of_int (List.length s)) specs))

let prop_engine_matches_reference =
  QCheck2.Test.make
    ~name:"Scoring.classify = reference_classify (incl. memo hits)" ~count:80
    ~print:print_case
    QCheck2.Gen.(pair cfg_gen specs_gen)
    (fun ((seed, m, n, (use_labels, track_callers)), specs) ->
      let profile = make_profile ~seed ~m ~n ~use_labels ~track_callers in
      (* a tiny memo so eviction happens mid-property *)
      let engine = Scoring.create ~cache_capacity:4 profile in
      let windows = List.map (window_of_spec profile.Profile.alphabet) specs in
      List.for_all
        (fun w ->
          let reference = Detector.reference_classify profile w in
          verdict_eq reference (Scoring.classify engine w)
          (* immediate re-score: a memo hit for cacheable windows *)
          && verdict_eq reference (Scoring.classify engine w))
        windows
      && (* second sweep after the memo churned *)
      List.for_all
        (fun w ->
          verdict_eq
            (Detector.reference_classify profile w)
            (Scoring.classify engine w))
        windows)

let prop_wrapper_matches_reference =
  QCheck2.Test.make
    ~name:"Detector.classify (engine-backed wrapper) = reference_classify"
    ~count:40 ~print:print_case
    QCheck2.Gen.(pair cfg_gen specs_gen)
    (fun ((seed, m, n, (use_labels, track_callers)), specs) ->
      let profile = make_profile ~seed ~m ~n ~use_labels ~track_callers in
      List.for_all
        (fun spec ->
          let w = window_of_spec profile.Profile.alphabet spec in
          verdict_eq
            (Detector.reference_classify profile w)
            (Detector.classify profile w))
        specs)

let prop_extend_invalidates =
  (* an extended engine must agree with the reference on the extended
     profile — no verdict of the old model may survive the extension *)
  QCheck2.Test.make ~name:"post-extend engine = reference on extended profile"
    ~count:15 ~print:print_case
    QCheck2.Gen.(pair cfg_gen specs_gen)
    (fun ((seed, m, n, (_, track_callers)), specs) ->
      let profile =
        make_profile ~seed ~m ~n ~use_labels:true ~track_callers
      in
      let engine = Scoring.create profile in
      let windows = List.map (window_of_spec profile.Profile.alphabet) specs in
      (* warm the memo on the old model *)
      List.iter (fun w -> ignore (Scoring.classify engine w)) windows;
      let growth =
        [
          window_of_spec profile.Profile.alphabet
            (List.init 10 (fun i -> (i, i mod 4)));
          window_of_spec profile.Profile.alphabet
            (List.init 10 (fun i -> (2 * i, (i + 1) mod 4)));
        ]
      in
      let extended = Scoring.extend engine growth in
      let extended_profile = Scoring.profile extended in
      List.for_all
        (fun w ->
          verdict_eq
            (Detector.reference_classify extended_profile w)
            (Scoring.classify extended w))
        windows)

(* --- explainability --------------------------------------------------------- *)

(* Ranked contributions equal to the reference's, surprisals bit for
   bit. *)
let same_top top reference =
  List.compare_lengths top reference = 0
  && List.for_all2
       (fun (c : Scoring.contribution) (r : Detector.surprise) ->
         c.Scoring.position = r.Detector.position
         && Symbol.compare c.Scoring.symbol r.Detector.symbol = 0
         && c.Scoring.caller = r.Detector.caller
         && Int64.equal (Int64.bits_of_float c.Scoring.surprisal)
              (Int64.bits_of_float r.Detector.surprisal))
       top reference

let prop_explain_gate_matches_reference =
  (* explain is Some exactly on anomalous windows, the gate agrees with
     the reference verdict's evidence (priority: unknown symbol, then
     unknown pair, then likelihood), the margin is non-negative exactly
     when an explanation exists, and the ranked contributions are the
     reference's, bit for bit *)
  QCheck2.Test.make ~name:"Scoring.explain: gate = reference evidence, margin >= 0"
    ~count:80 ~print:print_case
    QCheck2.Gen.(pair cfg_gen specs_gen)
    (fun ((seed, m, n, (use_labels, track_callers)), specs) ->
      let profile = make_profile ~seed ~m ~n ~use_labels ~track_callers in
      let engine = Scoring.create profile in
      List.for_all
        (fun spec ->
          let w = window_of_spec profile.Profile.alphabet spec in
          let reference = Detector.reference_classify profile w in
          match Scoring.explain ~top:3 engine w with
          | None -> reference.Detector.flag = Detector.Normal
          | Some e ->
              reference.Detector.flag <> Detector.Normal
              && verdict_eq reference e.Scoring.verdict
              && e.Scoring.exp_threshold = profile.Profile.threshold
              && e.Scoring.margin >= 0.0
              && (match e.Scoring.gate with
                 | Scoring.Unknown_symbol -> reference.Detector.unknown_symbol
                 | Scoring.Unknown_pair p | Scoring.Statically_impossible_pair p ->
                     (not reference.Detector.unknown_symbol)
                     && reference.Detector.unknown_pair = Some p
                 | Scoring.Statically_impossible_window ->
                     (* this engine has no automaton loaded *)
                     false
                 | Scoring.Below_threshold ->
                     (not reference.Detector.unknown_symbol)
                     && reference.Detector.unknown_pair = None
                     && reference.Detector.score < profile.Profile.threshold
                     && e.Scoring.margin > 0.0
                     (* margin = threshold - score: finite unless the
                        window scored -inf (e.g. an empty window) *)
                     && (Float.is_finite e.Scoring.margin
                        || reference.Detector.score = neg_infinity))
              && List.length e.Scoring.top <= 3
              && (let rec descending = function
                    | a :: (b :: _ as rest) ->
                        compare a.Scoring.surprisal b.Scoring.surprisal >= 0
                        && descending rest
                    | _ -> true
                  in
                  descending e.Scoring.top)
              (* the engine's surprisals come from its compiled forward
                 pass, the reference's from [Hmm.step_surprisals] *)
              && same_top e.Scoring.top (Detector.explain ~top:3 profile w))
        specs)

let prop_stream_explain_last_matches_batch =
  (* after each scored push, the stream's explanation is exactly the
     batch explanation of the window it just classified *)
  QCheck2.Test.make ~name:"Stream.explain_last = explain on the ring window"
    ~count:40 ~print:print_case
    QCheck2.Gen.(pair cfg_gen specs_gen)
    (fun ((seed, m, n, (use_labels, track_callers)), specs) ->
      let profile = make_profile ~seed ~m ~n ~use_labels ~track_callers in
      let engine = Scoring.create profile in
      let explanation_eq a b =
        match (a, b) with
        | None, None -> true
        | Some x, Some y ->
            x.Scoring.gate = y.Scoring.gate
            && verdict_eq x.Scoring.verdict y.Scoring.verdict
            && (x.Scoring.margin = y.Scoring.margin
               || (Float.is_nan x.Scoring.margin && Float.is_nan y.Scoring.margin))
            && x.Scoring.top = y.Scoring.top
        | _ -> false
      in
      List.for_all
        (fun spec ->
          let w = window_of_spec profile.Profile.alphabet spec in
          let window = Array.length w.Window.obs in
          if window = 0 then true
          else begin
            let stream = Scoring.Stream.create ~window engine in
            let events =
              Array.to_list
                (Array.mapi
                   (fun i sym ->
                     {
                       Runtime.Collector.symbol = sym;
                       caller = w.Window.callers.(i);
                       block = i;
                     })
                   w.Window.obs)
            in
            List.iter (fun e -> ignore (Scoring.Stream.push stream e)) events;
            explanation_eq (Scoring.explain ~top:3 engine w)
              (Scoring.Stream.explain_last stream)
          end)
        specs)

(* The stream against the specification, window by window: random
   profiles, unknown symbols and pairs, a memo of 1-8 verdicts so
   eviction happens, and thresholds moved mid-stream. The sessions of a
   case share one engine, as a daemon shard's do. Each verdict is
   compared, score bit for bit, with [reference_classify] under the
   threshold in force when the stream scored it. *)
let moves_gen =
  QCheck2.Gen.(
    triple (int_range 1 8) (int_range 1 6)
      (list_size (int_range 0 4) (pair (int_bound 60) (float_range (-12.0) (-1.0)))))

let prop_stream_matches_reference =
  QCheck2.Test.make
    ~name:"Stream verdicts = reference_classify on each Window.of_trace window"
    ~count:120
    ~print:(fun (case, (cap, window, moves)) ->
      Printf.sprintf "%s capacity=%d window=%d moves=%d" (print_case case) cap
        window (List.length moves))
    QCheck2.Gen.(pair (pair cfg_gen specs_gen) moves_gen)
    (fun (((seed, m, n, (use_labels, track_callers)), specs), (capacity, window, moves)) ->
      let base = make_profile ~seed ~m ~n ~use_labels ~track_callers in
      let profile =
        { base with Profile.params = { base.Profile.params with Profile.window } }
      in
      let engine = Scoring.create ~cache_capacity:capacity profile in
      let pushed = ref 0 in
      let bits_eq (a : Detector.verdict) (b : Detector.verdict) =
        verdict_eq a b
        && Int64.equal (Int64.bits_of_float a.Detector.score)
             (Int64.bits_of_float b.Detector.score)
      in
      List.for_all
        (fun spec ->
          let w = window_of_spec profile.Profile.alphabet spec in
          let trace =
            Array.mapi
              (fun i symbol ->
                { Runtime.Collector.symbol; caller = w.Window.callers.(i); block = i })
              w.Window.obs
          in
          let stream = Scoring.Stream.create engine in
          (* (verdict, threshold it was scored under), arrival order *)
          let live = ref [] in
          let scored v = live := (v, Scoring.threshold engine) :: !live in
          Array.iter
            (fun e ->
              List.iter
                (fun (at, th) -> if at = !pushed then Scoring.set_threshold engine th)
                moves;
              incr pushed;
              match Scoring.Stream.push stream e with
              | Ok (Some v) -> scored v
              | Ok None -> ()
              | Error e -> QCheck2.Test.fail_reportf "push rejected: %s" e)
            trace;
          Option.iter scored (Scoring.Stream.flush stream);
          let expected = Window.of_trace ~window trace in
          List.length expected = List.length !live
          && List.for_all2
               (fun w (v, threshold) ->
                 bits_eq
                   (Detector.reference_classify { profile with Profile.threshold } w)
                   v)
               expected (List.rev !live))
        specs)

(* The memo against a list-based LRU, step by step. Three streams of a
   case share one engine; each step pushes an event (an alphabet code,
   or -1 for a foreign symbol, and a caller) onto one of them, flushes
   one (a short session scores its flush window) and opens a fresh one
   in its place, moves the threshold among three values, or toggles
   the enforce gate. Every scored window must hit or miss as the model
   does, a window with a foreign symbol must bypass the memo, and after
   every step [cache_len] must equal the model's length. Capacity 64
   makes the slab grow past its first slots. *)
type memo_op =
  | Push of int * (int * int)
  | Flush of int
  | Move_threshold of float
  | Toggle_gate

let memo_op_gen =
  QCheck2.Gen.(
    frequency
      [
        ( 24,
          map2
            (fun k ev -> Push (k, ev))
            (int_bound 2)
            (pair (frequency [ (1, pure (-1)); (12, int_bound 3) ]) (int_bound 1)) );
        (2, map (fun k -> Flush k) (int_bound 2));
        (1, map (fun i -> Move_threshold [| -2.0; -4.0; -8.0 |].(i)) (int_bound 2));
        (1, pure Toggle_gate);
      ])

let prop_memo_matches_lru_model =
  QCheck2.Test.make ~name:"memo hits, misses and length = a list-based LRU" ~count:200
    ~print:(fun ((seed, track_callers), capacity, ops) ->
      Printf.sprintf "seed=%d track_callers=%b capacity=%d ops=%d" seed track_callers
        capacity (List.length ops))
    QCheck2.Gen.(
      triple
        (pair (int_bound 9999) bool)
        (oneof [ int_range 0 8; pure 64 ])
        (list_size (int_range 0 400) memo_op_gen))
    (fun ((seed, track_callers), capacity, ops) ->
      let window = 3 in
      let base = make_profile ~seed ~m:4 ~n:2 ~use_labels:false ~track_callers in
      let profile =
        { base with Profile.params = { base.Profile.params with Profile.window } }
      in
      let engine = Scoring.create ~cache_capacity:capacity profile in
      let event (s, c) =
        {
          Runtime.Collector.symbol =
            (if s < 0 then Symbol.lib "alien" else profile.Profile.alphabet.(s));
          caller = Printf.sprintf "c%d" c;
          block = 0;
        }
      in
      (* the model: keys, most recently used first *)
      let model = ref [] in
      let lookup key =
        if List.mem key !model then begin
          model := key :: List.filter (fun k -> k <> key) !model;
          `Hit
        end
        else begin
          if capacity > 0 then
            model := List.filteri (fun i _ -> i < capacity) (key :: !model);
          `Miss
        end
      in
      (* each live stream with its events, newest first *)
      let streams = Array.init 3 (fun _ -> (Scoring.Stream.create engine, ref [])) in
      let gate = ref false in
      let step = ref 0 in
      let fail fmt =
        QCheck2.Test.fail_reportf ("step %d: " ^^ fmt) !step
      in
      (* the engine's counters moved as the model says for the window
         scored, if any: the [len] newest events of [evs] *)
      let scored window (hits0, misses0) =
        let expected =
          match window with
          | None -> `Bypass
          | Some (evs, len) ->
              let win = List.filteri (fun i _ -> i < len) evs in
              if List.exists (fun (s, _) -> s < 0) win then `Bypass
              else
                lookup (List.map (fun (s, c) -> (s, if track_callers then c else 0)) win)
        in
        let got =
          match (Scoring.cache_hits engine - hits0, Scoring.cache_misses engine - misses0) with
          | 0, 0 -> `Bypass
          | 1, 0 -> `Hit
          | 0, 1 -> `Miss
          | h, m -> fail "%d hits and %d misses for one window" h m
        in
        let name = function `Bypass -> "bypass" | `Hit -> "hit" | `Miss -> "miss" in
        if got <> expected then fail "memo %s, model %s" (name got) (name expected)
      in
      let counts () = (Scoring.cache_hits engine, Scoring.cache_misses engine) in
      List.iter
        (fun op ->
          incr step;
          (match op with
          | Push (k, ev) -> (
              let stream, evs = streams.(k) in
              evs := ev :: !evs;
              let before = counts () in
              match Scoring.Stream.push stream (event ev) with
              | Ok (Some _) -> scored (Some (!evs, window)) before
              | Ok None -> scored None before
              | Error e -> fail "push rejected: %s" e)
          | Flush k ->
              let stream, evs = streams.(k) in
              let before = counts () in
              (match Scoring.Stream.flush stream with
              | Some _ -> scored (Some (!evs, List.length !evs)) before
              | None -> scored None before);
              streams.(k) <- (Scoring.Stream.create engine, ref [])
          | Move_threshold th ->
              if not (Float.equal th (Scoring.threshold engine)) then model := [];
              Scoring.set_threshold engine th
          | Toggle_gate ->
              gate := not !gate;
              model := [];
              Scoring.set_gate_enforce engine !gate);
          if Scoring.cache_len engine <> List.length !model then
            fail "cache_len %d, model %d" (Scoring.cache_len engine) (List.length !model))
        ops;
      true)

(* --- unit tests -------------------------------------------------------------- *)

let fixed_profile () =
  make_profile ~seed:5 ~m:6 ~n:3 ~use_labels:true ~track_callers:true

let known_window profile k =
  window_of_spec profile.Profile.alphabet
    (List.init 4 (fun i -> ((k + i) mod Array.length profile.Profile.alphabet, 0)))

let test_lru_eviction () =
  let profile = fixed_profile () in
  let engine = Scoring.create ~cache_capacity:2 profile in
  Alcotest.(check int) "capacity" 2 (Scoring.cache_capacity engine);
  let w1 = known_window profile 0
  and w2 = known_window profile 1
  and w3 = known_window profile 2 in
  ignore (Scoring.classify engine w1);
  ignore (Scoring.classify engine w1);
  Alcotest.(check int) "one hit" 1 (Scoring.cache_hits engine);
  Alcotest.(check int) "one miss" 1 (Scoring.cache_misses engine);
  ignore (Scoring.classify engine w2);
  ignore (Scoring.classify engine w3);
  Alcotest.(check int) "bounded" 2 (Scoring.cache_len engine);
  (* w1 was evicted (least recently used), so it misses again *)
  ignore (Scoring.classify engine w1);
  Alcotest.(check int) "evicted entry misses" 4 (Scoring.cache_misses engine);
  Alcotest.(check int) "hits unchanged" 1 (Scoring.cache_hits engine)

let test_cache_disabled () =
  let profile = fixed_profile () in
  let engine = Scoring.create ~cache_capacity:0 profile in
  let w = known_window profile 0 in
  let a = Scoring.classify engine w in
  let b = Scoring.classify engine w in
  Alcotest.(check bool) "same verdict" true (verdict_eq a b);
  Alcotest.(check int) "nothing cached" 0 (Scoring.cache_len engine);
  Alcotest.(check int) "no hits" 0 (Scoring.cache_hits engine)

let test_threshold_invalidation () =
  let profile = fixed_profile () in
  let engine = Scoring.create profile in
  let w = known_window profile 0 in
  let v = Scoring.classify engine w in
  Alcotest.(check bool) "finite score" true (Float.is_finite v.Detector.score);
  (* raising the threshold above the score must flip the flag — a stale
     memo entry would keep the old verdict *)
  Scoring.set_threshold engine (v.Detector.score +. 1.0);
  Alcotest.(check int) "memo flushed" 0 (Scoring.cache_len engine);
  let v' = Scoring.classify engine w in
  Alcotest.(check bool) "reflagged under the new threshold" true
    (v'.Detector.flag <> Detector.Normal);
  Alcotest.(check bool) "score unchanged" true
    (v.Detector.score = v'.Detector.score);
  (* setting the same threshold again must not flush *)
  Scoring.set_threshold engine (Scoring.threshold engine);
  Alcotest.(check int) "no-op set keeps the memo" 1 (Scoring.cache_len engine)

let test_unknown_bypasses_memo () =
  let profile = fixed_profile () in
  let engine = Scoring.create profile in
  let alien =
    {
      Window.obs = [| Symbol.lib "alien"; Symbol.observable profile.Profile.alphabet.(0) |];
      callers = [| "c0"; "c0" |];
    }
  in
  let v = Scoring.classify engine alien in
  Alcotest.(check bool) "unknown symbol" true v.Detector.unknown_symbol;
  Alcotest.(check bool) "neg_infinity score" true
    (v.Detector.score = Float.neg_infinity);
  Alcotest.(check int) "not memoized" 0 (Scoring.cache_len engine);
  Alcotest.(check bool) "equal to reference" true
    (verdict_eq (Detector.reference_classify profile alien) v)

let test_empty_window () =
  let profile = fixed_profile () in
  let engine = Scoring.create profile in
  let empty = { Window.obs = [||]; callers = [||] } in
  Alcotest.(check bool) "empty window equals reference" true
    (verdict_eq (Detector.reference_classify profile empty)
       (Scoring.classify engine empty))

(* Minor words a memo miss costs [classify] beyond what a hit costs:
   9 with the slab memo, the verdict, its boxed score and the forward
   pass's boxed result. Before it this case measured 32.9 (a key copy,
   the LRU node, a hash-table bucket, the verdict), and a 15-call
   window with callers tracked about 47. [2 * capacity] windows taken
   in turn all miss, and every miss past the first round evicts;
   [capacity / 2] windows taken in turn all hit. *)
let test_miss_allocation () =
  let profile = make_profile ~seed:5 ~m:6 ~n:3 ~use_labels:true ~track_callers:false in
  let capacity = 64 in
  let engine = Scoring.create ~cache_capacity:capacity profile in
  let windows k =
    Array.init k (fun i ->
        window_of_spec profile.Profile.alphabet
          (List.init 4 (fun d -> ((i / [| 1; 6; 36; 216 |].(d)) mod 6, 0))))
  in
  let rounds = 20 in
  let words_per_call ws =
    Array.iter (fun w -> ignore (Scoring.classify engine w)) ws;
    let w0 = Gc.minor_words () in
    for _ = 1 to rounds do
      Array.iter (fun w -> ignore (Scoring.classify engine w)) ws
    done;
    (Gc.minor_words () -. w0) /. float_of_int (rounds * Array.length ws)
  in
  let cycling = windows (2 * capacity) and resident = windows (capacity / 2) in
  let misses0 = Scoring.cache_misses engine in
  let miss = words_per_call cycling in
  Alcotest.(check int) "every call missed"
    ((rounds + 1) * Array.length cycling)
    (Scoring.cache_misses engine - misses0);
  let hits0 = Scoring.cache_hits engine in
  let hit = words_per_call resident in
  Alcotest.(check int) "every measured call hit" (rounds * Array.length resident)
    (Scoring.cache_hits engine - hits0);
  let per_miss = miss -. hit in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per miss <= 12" per_miss)
    true (per_miss <= 12.0)

let mk_event profile i =
  {
    Runtime.Collector.symbol =
      profile.Profile.alphabet.(i mod Array.length profile.Profile.alphabet);
    caller = Printf.sprintf "c%d" (i mod 4);
    block = i;
  }

let test_stream_matches_monitor () =
  let profile = fixed_profile () in
  let engine = Scoring.create profile in
  let trace = Array.init 40 (mk_event profile) in
  let batch = List.map snd (Scoring.monitor engine trace) in
  let stream = Scoring.Stream.create engine in
  let live = ref [] in
  Array.iter
    (fun e ->
      match Scoring.Stream.push stream e with
      | Ok (Some v) -> live := v :: !live
      | Ok None -> ()
      | Error e -> Alcotest.failf "push rejected: %s" e)
    trace;
  (match Scoring.Stream.flush stream with
  | Some v -> live := v :: !live
  | None -> ());
  let live = List.rev !live in
  Alcotest.(check int) "window count" (List.length batch) (List.length live);
  List.iter2
    (fun b l -> Alcotest.(check bool) "same verdict" true (verdict_eq b l))
    batch live

let test_stream_push_after_flush () =
  let profile = fixed_profile () in
  let stream = Scoring.Stream.create (Scoring.create profile) in
  (match Scoring.Stream.push stream (mk_event profile 0) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "live push rejected: %s" e);
  ignore (Scoring.Stream.flush stream);
  Alcotest.(check bool) "flushed" true (Scoring.Stream.flushed stream);
  match Scoring.Stream.push stream (mk_event profile 1) with
  | Error _ ->
      Alcotest.(check int) "rejected push not counted" 1
        (Scoring.Stream.events_seen stream)
  | Ok _ -> Alcotest.fail "push after flush must return Error"

let () =
  Alcotest.run "scoring"
    [
      ( "equivalence properties",
        [
          QCheck_alcotest.to_alcotest prop_engine_matches_reference;
          QCheck_alcotest.to_alcotest prop_wrapper_matches_reference;
          QCheck_alcotest.to_alcotest prop_extend_invalidates;
          QCheck_alcotest.to_alcotest prop_stream_matches_reference;
          QCheck_alcotest.to_alcotest prop_memo_matches_lru_model;
        ] );
      ( "explainability",
        [
          QCheck_alcotest.to_alcotest prop_explain_gate_matches_reference;
          QCheck_alcotest.to_alcotest prop_stream_explain_last_matches_batch;
        ] );
      ( "memo",
        [
          Alcotest.test_case "LRU eviction and counters" `Quick test_lru_eviction;
          Alcotest.test_case "capacity 0 disables caching" `Quick test_cache_disabled;
          Alcotest.test_case "set_threshold flushes the memo" `Quick
            test_threshold_invalidation;
          Alcotest.test_case "unknown symbols bypass the memo" `Quick
            test_unknown_bypasses_memo;
          Alcotest.test_case "empty window" `Quick test_empty_window;
          Alcotest.test_case "a miss allocates only its verdict" `Quick
            test_miss_allocation;
        ] );
      ( "stream",
        [
          Alcotest.test_case "ring matches the batch loop" `Quick
            test_stream_matches_monitor;
          Alcotest.test_case "push after flush is a soft error" `Quick
            test_stream_push_after_flush;
        ] );
    ]
