module Symbol = Analysis.Symbol

type flag =
  | Normal
  | Anomalous
  | Data_leak
  | Out_of_context

type verdict = {
  flag : flag;
  score : float;
  unknown_symbol : bool;
  unknown_pair : (string * Symbol.t) option;
}

(* --- bounded LRU verdict memo ------------------------------------------ *)

let key_equal (a : int array) (b : int array) =
  let la = Array.length a in
  la = Array.length b
  &&
  let i = ref 0 in
  while !i < la && Array.unsafe_get a !i = Array.unsafe_get b !i do
    incr i
  done;
  !i = la

(* FNV-1a over the whole window. The stdlib polymorphic hash folds only
   a prefix, which collides badly on stride-1 sliding windows (they
   share long prefixes). *)
let key_hash (k : int array) =
  let h = ref 0x811c9dc5 in
  for i = 0 to Array.length k - 1 do
    h := (!h lxor Array.unsafe_get k i) * 0x01000193 land max_int
  done;
  !h

(* A slab of slots in parallel arrays: slot [s] holds a key, its hash
   and its verdict, and is linked toward the MRU end by [prev.(s)] and
   toward the LRU end by [next.(s)] ([-1] ends the list). The live
   slots are always [0 .. len - 1]: a miss takes slot [len] while
   there is one, doubling the slab up to [capacity] when it is full,
   and past that the LRU slot, whose key array is overwritten in place
   when the lengths agree. [index] maps keys to slots by linear probing
   ([-1] = empty) and is at most half full; an evicted slot leaves it
   by back-shift deletion, so no tombstones build up. A miss thus
   allocates nothing but its verdict once the slab is warm. *)
type cache = {
  capacity : int;
  mutable keys : int array array;
  mutable hashes : int array;
  mutable verdicts : verdict array;
  mutable prev : int array;
  mutable next : int array;
  mutable index : int array;
  mutable len : int;
  mutable mru : int;
  mutable lru : int;
  mutable hits : int;
  mutable misses : int;
}

let dummy_verdict =
  { flag = Normal; score = 0.0; unknown_symbol = false; unknown_pair = None }

(* The slab's first size: a small engine never pays for a full one. *)
let first_slots = 16

(* The index for [slots] slots: a power of two, at least twice that. *)
let index_for slots =
  let rec pow2 n = if n >= 2 * slots then n else pow2 (2 * n) in
  Array.make (pow2 2) (-1)

let cache_create capacity =
  let slots = min capacity first_slots in
  {
    capacity;
    keys = Array.make slots [||];
    hashes = Array.make slots 0;
    verdicts = Array.make slots dummy_verdict;
    prev = Array.make slots (-1);
    next = Array.make slots (-1);
    index = index_for slots;
    len = 0;
    mru = -1;
    lru = -1;
    hits = 0;
    misses = 0;
  }

(* The FNV product mixes upward only: fold high bits into the low ones
   the mask keeps. *)
let home c h = (h lxor (h lsr 17)) land (Array.length c.index - 1)
let succ_pos c i = (i + 1) land (Array.length c.index - 1)

let rec probe c key h i =
  let s = Array.unsafe_get c.index i in
  if s < 0 || (c.hashes.(s) = h && key_equal c.keys.(s) key) then s
  else probe c key h (succ_pos c i)

(* Top-level loops, not local closures: a miss allocates no closure. *)
let rec index_add_at c s i =
  if c.index.(i) < 0 then c.index.(i) <- s else index_add_at c s (succ_pos c i)

let index_add c s = index_add_at c s (home c c.hashes.(s))

(* Empty [c.index]'s cell [hole], pulling back each later entry of its
   probe run whose home does not lie cyclically in [(hole, j]]. *)
let rec shift_back c hole j =
  let j = succ_pos c j in
  let s = c.index.(j) in
  if s < 0 then c.index.(hole) <- -1
  else
    let mask = Array.length c.index - 1 in
    if (j - home c c.hashes.(s)) land mask >= (j - hole) land mask then begin
      c.index.(hole) <- s;
      shift_back c j j
    end
    else shift_back c hole j

let rec index_pos c s i = if c.index.(i) = s then i else index_pos c s (succ_pos c i)

let index_remove c s =
  let i = index_pos c s (home c c.hashes.(s)) in
  shift_back c i i

let unlink c s =
  let p = c.prev.(s) and n = c.next.(s) in
  if p >= 0 then c.next.(p) <- n else c.mru <- n;
  if n >= 0 then c.prev.(n) <- p else c.lru <- p

let push_front c s =
  c.prev.(s) <- -1;
  c.next.(s) <- c.mru;
  if c.mru >= 0 then c.prev.(c.mru) <- s else c.lru <- s;
  c.mru <- s

(* The slot of [key] (hash [h]), made most recently used, or [-1]. *)
let cache_find c key h =
  let s = probe c key h (home c h) in
  if s >= 0 then begin
    c.hits <- c.hits + 1;
    if c.mru <> s then begin
      unlink c s;
      push_front c s
    end
  end
  else c.misses <- c.misses + 1;
  s

let grow c =
  let slots = min c.capacity (2 * Array.length c.keys) in
  let extend a fill =
    let b = Array.make slots fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  c.keys <- extend c.keys [||];
  c.hashes <- extend c.hashes 0;
  c.verdicts <- extend c.verdicts dummy_verdict;
  c.prev <- extend c.prev (-1);
  c.next <- extend c.next (-1);
  c.index <- index_for slots;
  for s = 0 to c.len - 1 do
    index_add c s
  done

(* [key] may be a scratch buffer: the slot keeps a copy. *)
let cache_insert c key h v =
  if c.capacity > 0 then begin
    let s =
      if c.len < c.capacity then begin
        if c.len = Array.length c.keys then grow c;
        c.len <- c.len + 1;
        c.len - 1
      end
      else begin
        let s = c.lru in
        index_remove c s;
        unlink c s;
        s
      end
    in
    let k = c.keys.(s) in
    if Array.length k = Array.length key then Array.blit key 0 k 0 (Array.length key)
    else c.keys.(s) <- Array.copy key;
    c.hashes.(s) <- h;
    c.verdicts.(s) <- v;
    push_front c s;
    index_add c s
  end

let cache_clear c =
  Array.fill c.index 0 (Array.length c.index) (-1);
  c.len <- 0;
  c.mru <- -1;
  c.lru <- -1

(* --- prepared windows ----------------------------------------------------- *)

(* A ring of prepared slots: position [i] of a window that starts at
   slot [start] lives in slot [(start + i) mod capacity]. A [Stream]
   keeps one ring per session; batch [classify] loads its window into
   an engine-owned ring of exactly the window's length. *)
type ring = {
  r_codes : int array;  (* profile alphabet code; -1 = outside the alphabet *)
  r_syms : Symbol.t array;  (* prepared observable symbols *)
  r_callers : string array;
  r_cids : int array;  (* interned caller; -1 unless tracked and the code is known *)
  r_labeled : bool array;
  r_pair_known : bool array;  (* always true when callers are not tracked *)
}

let ring_create n =
  {
    r_codes = Array.make n (-1);
    r_syms = Array.make n Symbol.Entry;
    r_callers = Array.make n "";
    r_cids = Array.make n (-1);
    r_labeled = Array.make n false;
    r_pair_known = Array.make n false;
  }

(* --- the compiled engine ----------------------------------------------- *)

type t = {
  profile : Profile.t;
  compiled : Hmm.Compiled.t;
  use_labels : bool;
  track_callers : bool;
  labeled : bool array;  (* per alphabet code *)
  mutable threshold : float;
  caller_ids : (string, int) Hashtbl.t;  (* interned callers *)
  mutable next_caller_id : int;
  pair_stride : int;
  pair_codes : (int, unit) Hashtbl.t;  (* caller_id * stride + code + 1 *)
  mutable static_pairs : (string * Symbol.t, unit) Hashtbl.t option;
      (* statically possible pairs (profile label view); explanation
         gating only, never consulted by [classify] *)
  mutable static_dfa : Analysis.Seqauto.t option;
  mutable dfa_codes : int array;
      (* profile alphabet code -> DFA symbol code; -1 = the automaton
         never emits this symbol (any window containing it is rejected) *)
  mutable gate_enforce : bool;
  mutable gate_checks : int;
  mutable gate_rejections : int;
  cache : cache;
  code_scratch : (int, int array) Hashtbl.t;  (* per-length, reused *)
  key_scratch : (int, int array) Hashtbl.t;
  ring_scratch : (int, ring) Hashtbl.t;  (* batch [classify]'s windows *)
}

let intern_caller t caller =
  match Hashtbl.find t.caller_ids caller with
  | id -> id
  | exception Not_found ->
      let id = t.next_caller_id in
      t.next_caller_id <- id + 1;
      Hashtbl.replace t.caller_ids caller id;
      id

let default_cache_capacity = 8192

let create ?(cache_capacity = default_cache_capacity) profile =
  if cache_capacity < 0 then invalid_arg "Scoring.create: negative cache capacity";
  let t =
    {
      profile;
      compiled = Hmm.Compiled.of_model profile.Profile.model;
      use_labels = profile.Profile.params.Profile.use_labels;
      track_callers = profile.Profile.params.Profile.track_callers;
      labeled = Array.map Symbol.is_labeled profile.Profile.alphabet;
      threshold = profile.Profile.threshold;
      caller_ids = Hashtbl.create 64;
      next_caller_id = 0;
      pair_stride = Array.length profile.Profile.alphabet + 2;
      pair_codes = Hashtbl.create 256;
      static_pairs = None;
      static_dfa = None;
      dfa_codes = [||];
      gate_enforce = false;
      gate_checks = 0;
      gate_rejections = 0;
      cache = cache_create cache_capacity;
      code_scratch = Hashtbl.create 4;
      key_scratch = Hashtbl.create 4;
      ring_scratch = Hashtbl.create 4;
    }
  in
  Hashtbl.iter
    (fun (caller, sym) () ->
      (* Pairs outside the alphabet cannot arise from train/extend; if
         one ever does, the per-window fallback below still consults the
         raw table, so compiling it away here is safe either way. *)
      match Symbol.Table.find_opt profile.Profile.obs_index sym with
      | Some code ->
          Hashtbl.replace t.pair_codes
            ((intern_caller t caller * t.pair_stride) + code + 1)
            ()
      | None -> ())
    profile.Profile.known_pairs;
  t

let profile t = t.profile
let threshold t = t.threshold
let cache_hits t = t.cache.hits
let cache_misses t = t.cache.misses
let cache_len t = t.cache.len
let cache_capacity t = t.cache.capacity

let set_static_pairs t pairs =
  match pairs with
  | None -> t.static_pairs <- None
  | Some l ->
      let tbl = Hashtbl.create ((2 * List.length l) + 1) in
      List.iter
        (fun (caller, sym) ->
          let sym = Symbol.observable sym in
          let sym = if t.use_labels then sym else Symbol.strip_label sym in
          Hashtbl.replace tbl (caller, sym) ())
        l;
      t.static_pairs <- Some tbl

let static_pairs_loaded t = t.static_pairs <> None

(* --- the call-sequence automaton gate ----------------------------------- *)

let set_static_dfa t auto =
  (match auto with
  | None ->
      t.static_dfa <- None;
      t.dfa_codes <- [||]
  | Some a ->
      if a.Analysis.Seqauto.use_labels <> t.use_labels then
        invalid_arg
          "Scoring.set_static_dfa: automaton label view differs from the profile's";
      t.static_dfa <- Some a;
      t.dfa_codes <-
        Array.map
          (fun sym ->
            match Analysis.Dfa.sym_code a.Analysis.Seqauto.dfa sym with
            | Some c -> c
            | None -> -1)
          t.profile.Profile.alphabet);
  (* memoized verdicts may predate the gate *)
  cache_clear t.cache

let set_gate_enforce t on =
  if on <> t.gate_enforce then begin
    t.gate_enforce <- on;
    cache_clear t.cache
  end

let gate_checks t = t.gate_checks
let gate_rejections t = t.gate_rejections

(* Walk a window's profile codes through the DFA; [true] = the walk
   died, i.e. the static phase proved no execution emits this window.
   [codes] is read as a ring from slot [start]. *)
let dfa_walk_dies t dfa codes ~start ~len =
  let cap = Array.length codes in
  let state = ref (Analysis.Dfa.start dfa) and i = ref 0 in
  while !state >= 0 && !i < len do
    let dc = Array.unsafe_get t.dfa_codes (Array.unsafe_get codes ((start + !i) mod cap)) in
    state := if dc < 0 then -1 else Analysis.Dfa.step dfa !state dc;
    incr i
  done;
  !state < 0

(* Every DFA walk that decides something is counted here: enforce-mode
   gates in [decide] and explain-mode window checks in [explain]. *)
let counted_walk t (a : Analysis.Seqauto.t) codes ~start ~len =
  t.gate_checks <- t.gate_checks + 1;
  let r = dfa_walk_dies t a.Analysis.Seqauto.dfa codes ~start ~len in
  if r then t.gate_rejections <- t.gate_rejections + 1;
  r

(* The enforce-mode gate, consulted by [decide] on the known-symbols
   path before the memo: rejected windows short-circuit to an anomalous
   verdict with no forward pass and never enter the memo. *)
let gate_rejects t codes ~start ~len =
  match t.static_dfa with
  | Some a when t.gate_enforce -> counted_walk t a codes ~start ~len
  | Some _ | None -> false

(* Flag chosen directly (not via the threshold comparison) so a rejected
   window is anomalous whatever the threshold is. *)
let gate_verdict ~unknown_pair ~labeled_any =
  let flag =
    if labeled_any then Data_leak
    else if unknown_pair <> None then Out_of_context
    else Anomalous
  in
  { flag; score = neg_infinity; unknown_symbol = false; unknown_pair }

let set_threshold t th =
  if not (Float.equal th t.threshold) then begin
    t.threshold <- th;
    cache_clear t.cache
  end

(* The engine's per-length scratch in [tbl], made on first use. *)
let scratch tbl len make =
  match Hashtbl.find tbl len with
  | a -> a
  | exception Not_found ->
      let a = make len in
      Hashtbl.replace tbl len a;
      a

let scratch_of tbl len = scratch tbl len (fun n -> Array.make n 0)

(* Exactly the reference flag decision of [Detector.reference_classify]:
   [labeled_any] stands for [Window.contains_labeled_output]. *)
let make_verdict t ~score ~unknown_symbol ~unknown_pair ~labeled_any =
  let anomalous = score < t.threshold || unknown_symbol || unknown_pair <> None in
  let flag =
    if not anomalous then Normal
    else if labeled_any then Data_leak
    else if unknown_pair <> None then Out_of_context
    else Anomalous
  in
  { flag; score; unknown_symbol; unknown_pair }

let pair_known t ~caller ~cid ~code ~sym =
  if code >= 0 then Hashtbl.mem t.pair_codes ((cid * t.pair_stride) + code + 1)
  else Profile.known_pair t.profile caller sym

(* The one slot loader. [sym] is already prepared: observable, under
   the profile's label view. *)
let load_slot t r s ~sym ~caller =
  let code =
    match Symbol.Table.find t.profile.Profile.obs_index sym with
    | c -> c
    | exception Not_found -> -1
  in
  let cid = if t.track_callers && code >= 0 then intern_caller t caller else -1 in
  r.r_codes.(s) <- code;
  r.r_syms.(s) <- sym;
  r.r_callers.(s) <- caller;
  r.r_cids.(s) <- cid;
  r.r_labeled.(s) <- (if code >= 0 then t.labeled.(code) else Symbol.is_labeled sym);
  r.r_pair_known.(s) <- (not t.track_callers) || pair_known t ~caller ~cid ~code ~sym

let rec first_unknown_pair r ~cap ~start ~len i =
  if i >= len then None
  else
    let s = (start + i) mod cap in
    if r.r_pair_known.(s) then first_unknown_pair r ~cap ~start ~len (i + 1)
    else Some (r.r_callers.(s), r.r_syms.(s))

let unknown_pair t r ~start ~len =
  if t.track_callers then
    first_unknown_pair r ~cap:(Array.length r.r_codes) ~start ~len 0
  else None

(* The window's codes, oldest first, in the engine's contiguous scratch. *)
let codes_of t r ~start ~len =
  let cap = Array.length r.r_codes in
  let codes = scratch_of t.code_scratch len in
  for i = 0 to len - 1 do
    codes.(i) <- r.r_codes.((start + i) mod cap)
  done;
  codes

(* The one window decision (Sec. IV-D) over the [len] slots of [r]
   from [start] on: unknown symbols, then the enforce-mode gate, then
   the memo and the forward pass. Both [classify] and [Stream] score
   through here. *)
let decide t r ~start ~len =
  let cap = Array.length r.r_codes in
  let unknown = ref false and labeled_any = ref false in
  for i = 0 to len - 1 do
    let s = (start + i) mod cap in
    if r.r_codes.(s) < 0 then unknown := true;
    if r.r_labeled.(s) then labeled_any := true
  done;
  if !unknown then
    (* Symbols outside the alphabet: neg_infinity without a forward
       pass, and the verdict names the offending symbol, so these
       windows bypass the memo (codes collide on -1). *)
    make_verdict t ~score:neg_infinity ~unknown_symbol:true
      ~unknown_pair:(unknown_pair t r ~start ~len) ~labeled_any:!labeled_any
  else if gate_rejects t r.r_codes ~start ~len then
    gate_verdict ~unknown_pair:(unknown_pair t r ~start ~len) ~labeled_any:!labeled_any
  else begin
    let key =
      if t.track_callers then begin
        let key = scratch_of t.key_scratch (2 * len) in
        for i = 0 to len - 1 do
          let s = (start + i) mod cap in
          key.(2 * i) <- r.r_codes.(s);
          key.((2 * i) + 1) <- r.r_cids.(s)
        done;
        key
      end
      else codes_of t r ~start ~len
    in
    let h = key_hash key in
    let s = cache_find t.cache key h in
    if s >= 0 then t.cache.verdicts.(s)
    else begin
      let codes = if t.track_callers then codes_of t r ~start ~len else key in
      let score = Hmm.Compiled.per_symbol_score_sub t.compiled codes ~pos:0 ~len in
      let v =
        make_verdict t ~score ~unknown_symbol:false
          ~unknown_pair:(unknown_pair t r ~start ~len) ~labeled_any:!labeled_any
      in
      cache_insert t.cache key h v;
      v
    end
  end

let classify t window =
  let w = Profile.prepare t.profile window in
  let obs = w.Window.obs and callers = w.Window.callers in
  let len = Array.length obs in
  if len = 0 then
    (* the reference fails to encode an empty window and scores it
       neg_infinity without a forward pass *)
    make_verdict t ~score:neg_infinity ~unknown_symbol:false ~unknown_pair:None
      ~labeled_any:false
  else begin
    let r = scratch t.ring_scratch len ring_create in
    for i = 0 to len - 1 do
      load_slot t r i ~sym:obs.(i) ~caller:callers.(i)
    done;
    decide t r ~start:0 ~len
  end

let monitor t trace =
  List.map
    (fun w -> (w, classify t w))
    (Window.of_trace ~window:t.profile.Profile.params.Profile.window trace)

(* --- verdict explainability -------------------------------------------- *)

type gate =
  | Unknown_symbol
  | Unknown_pair of (string * Symbol.t)
  | Statically_impossible_pair of (string * Symbol.t)
  | Statically_impossible_window
  | Below_threshold

type contribution = {
  position : int;
  symbol : Symbol.t;
  caller : string;
  surprisal : float;
}

type explanation = {
  gate : gate;
  verdict : verdict;
  exp_threshold : float;
  margin : float;
  top : contribution list;
}

let gate_to_string = function
  | Unknown_symbol -> "unknown-symbol"
  | Unknown_pair (caller, sym) ->
      Printf.sprintf "unknown-pair(%s from %s)" (Symbol.to_string sym) caller
  | Statically_impossible_pair (caller, sym) ->
      Printf.sprintf "statically-impossible-pair(%s from %s)" (Symbol.to_string sym)
        caller
  | Statically_impossible_window -> "statically-impossible-window"
  | Below_threshold -> "below-threshold"

(* Explain verdict [v], already computed on [window]. *)
let explain_verdict ~top t v window =
  if v.flag = Normal then None
  else begin
    let w = Profile.prepare t.profile window in
    let n = Array.length w.Window.obs in
    let encoded =
      Window.encode ~index:(Symbol.Table.find_opt t.profile.Profile.obs_index) w
    in
    let surprisals =
      match encoded with
      | Some codes -> Hmm.Compiled.step_surprisals t.compiled codes
      | None ->
          (* unknown symbols dominate: infinite surprisal, known
             positions fall back to zero so the unknowns rank first *)
          Array.init n (fun i ->
              if Symbol.Table.mem t.profile.Profile.obs_index w.Window.obs.(i)
              then 0.0
              else infinity)
    in
    let entries =
      List.init n (fun i ->
          {
            position = i;
            symbol = w.Window.obs.(i);
            caller = w.Window.callers.(i);
            surprisal = surprisals.(i);
          })
    in
    let sorted =
      List.stable_sort (fun a b -> compare b.surprisal a.surprisal) entries
    in
    (* Walk the prepared window through the call-sequence automaton:
       [true] = no execution of the program can emit this sequence. In
       explain-only deployments this is where the automaton is consulted
       at all, and the walk is counted; under enforce the verdict's own
       gate already walked and counted it. Reached only when every
       symbol is known, so the window encodes (an empty one walks
       nothing). *)
    let window_impossible () =
      let codes = Option.value encoded ~default:[||] in
      match t.static_dfa with
      | None -> false
      | Some a when t.gate_enforce ->
          dfa_walk_dies t a.Analysis.Seqauto.dfa codes ~start:0 ~len:n
      | Some a -> counted_walk t a codes ~start:0 ~len:n
    in
    let gate =
      if v.unknown_symbol then Unknown_symbol
      else
        match v.unknown_pair with
        | Some ((caller, sym) as p) -> (
            (* Same evidence, sharper charge: a pair the static phase
               proved the program cannot produce is tampering or a
               profile/program mismatch, not behavioural drift. *)
            match t.static_pairs with
            | Some tbl when not (Hashtbl.mem tbl (caller, sym)) ->
                Statically_impossible_pair p
            | _ -> Unknown_pair p)
        | None ->
            if window_impossible () then Statically_impossible_window
            else Below_threshold
    in
    let margin =
      (* distance past the gate that fired: how far below threshold the
         likelihood fell, or infinite for the categorical gates — so an
         explanation's margin is always non-negative *)
      match gate with
      | Below_threshold -> t.threshold -. v.score
      | Unknown_symbol | Unknown_pair _ | Statically_impossible_pair _
      | Statically_impossible_window ->
          infinity
    in
    Some
      {
        gate;
        verdict = v;
        exp_threshold = t.threshold;
        margin;
        top = List.filteri (fun i _ -> i < top) sorted;
      }
  end

let explain ~top t window = explain_verdict ~top t (classify t window) window

let float_str f =
  if f = infinity then "inf"
  else if f = neg_infinity then "-inf"
  else Printf.sprintf "%.3f" f

let explanation_to_string e =
  Printf.sprintf "gate=%s score=%s threshold=%s margin=%s%s"
    (gate_to_string e.gate) (float_str e.verdict.score) (float_str e.exp_threshold)
    (float_str e.margin)
    (match e.top with
    | [] -> ""
    | top ->
        Printf.sprintf " top=[%s]"
          (String.concat "; "
             (List.map
                (fun c ->
                  Printf.sprintf "%s@%d from %s: %s" (Symbol.to_string c.symbol)
                    c.position c.caller (float_str c.surprisal))
                top)))

let extend t windows =
  let t' = create ~cache_capacity:t.cache.capacity (Profile.extend t.profile windows) in
  (* Extension keeps the program (and its label view) fixed, so the
     static facts stay valid for the new engine. *)
  t'.static_pairs <- t.static_pairs;
  (match t.static_dfa with
  | Some a ->
      set_static_dfa t' (Some a);
      set_gate_enforce t' t.gate_enforce
  | None -> ());
  t'

(* --- per-profile engine cache (domain-local) ---------------------------- *)

let of_profile_limit = 8

let dls_engines : (Profile.t * t) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let of_profile p =
  let engines = Domain.DLS.get dls_engines in
  match List.find_opt (fun (p', _) -> p' == p) !engines with
  | Some (_, eng) ->
      (match !engines with
      | (p', _) :: _ when p' == p -> ()  (* already MRU: skip the rebuild *)
      | _ -> engines := (p, eng) :: List.filter (fun (p', _) -> p' != p) !engines);
      eng
  | None ->
      let eng = create p in
      let rest =
        if List.length !engines >= of_profile_limit then
          List.filteri (fun i _ -> i < of_profile_limit - 1) !engines
        else !engines
      in
      engines := (p, eng) :: rest;
      eng

(* --- incremental per-session streams ------------------------------------ *)

module Stream = struct
  type engine = t

  type t = {
    eng : engine;
    ring : ring;  (* capacity: the window length *)
    mutable pushed : int;
    mutable last : verdict;  (* of the window [classify_last] scored last *)
    mutable is_flushed : bool;
  }

  (* [last] before any window is scored; shared, so a session costs no
     extra allocation *)
  let unscored = { flag = Normal; score = nan; unknown_symbol = false; unknown_pair = None }

  let create ?window eng =
    let window =
      match window with
      | Some w -> w
      | None -> eng.profile.Profile.params.Profile.window
    in
    if window <= 0 then invalid_arg "Scoring.Stream.create: window must be positive";
    { eng; ring = ring_create window; pushed = 0; last = unscored; is_flushed = false }

  let engine st = st.eng
  let window st = Array.length st.ring.r_codes
  let events_seen st = st.pushed
  let flushed st = st.is_flushed

  (* The window of the last [len] buffered events, oldest first. *)
  let classify_last st len =
    st.last <- decide st.eng st.ring ~start:(st.pushed - len) ~len;
    st.last

  let push st (event : Runtime.Collector.event) =
    if st.is_flushed then Error "push after flush: scorer already flushed"
    else begin
      let eng = st.eng in
      let sym = Symbol.observable event.Runtime.Collector.symbol in
      let sym = if eng.use_labels then sym else Symbol.strip_label sym in
      let window = window st in
      load_slot eng st.ring (st.pushed mod window) ~sym ~caller:event.Runtime.Collector.caller;
      st.pushed <- st.pushed + 1;
      if st.pushed >= window then Ok (Some (classify_last st window)) else Ok None
    end

  let flush st =
    if st.is_flushed then None
    else begin
      st.is_flushed <- true;
      if st.pushed > 0 && st.pushed < window st then Some (classify_last st st.pushed)
      else None
    end

  (* Rebuild the window that [classify_last] most recently scored —
     either the full ring (steady state) or the short flush window —
     and explain the verdict it got there, without classifying it
     again. The symbols in the ring are already prepared (observable,
     labels per [use_labels]), and [Profile.prepare] is idempotent on
     prepared windows. *)
  let explain_last st =
    let window = window st in
    let len =
      if st.pushed >= window then window else if st.is_flushed then st.pushed else 0
    in
    if len = 0 then None
    else begin
      let start = st.pushed - len in
      let slot i = (start + i) mod window in
      let w =
        Window.
          {
            obs = Array.init len (fun i -> st.ring.r_syms.(slot i));
            callers = Array.init len (fun i -> st.ring.r_callers.(slot i));
          }
      in
      explain_verdict ~top:3 st.eng st.last w
    end
end
