type t = {
  syms : Symbol.t array;
  index : int Symbol.Table.t;
  start : int;
  nstates : int;
  trans : int array;  (* nstates * width, row-major; -1 = dead *)
}

let nstates t = t.nstates
let width t = Array.length t.syms
let start t = t.start

let sym_code t sym = Symbol.Table.find_opt t.index sym

let step t state code =
  if state < 0 then -1 else Array.unsafe_get t.trans ((state * Array.length t.syms) + code)

let accepts_factor t word =
  let rec go state = function
    | [] -> state >= 0
    | sym :: rest -> (
        if state < 0 then false
        else
          match sym_code t sym with
          | None -> false
          | Some c -> go (step t state c) rest)
  in
  go t.start word

(* --- bitsets over NFA states -------------------------------------------- *)

module Bits = struct
  let create n = Array.make ((n + 62) / 63) 0
  let get b i = b.(i / 63) land (1 lsl (i mod 63)) <> 0
  let set b i = b.(i / 63) <- b.(i / 63) lor (1 lsl (i mod 63))

  (* index of the lowest set bit of a non-zero word *)
  let lowest x =
    let n = ref 0 and x = ref x in
    if !x land 0xFFFF_FFFF = 0 then begin n := 32; x := !x lsr 32 end;
    if !x land 0xFFFF = 0 then begin n := !n + 16; x := !x lsr 16 end;
    if !x land 0xFF = 0 then begin n := !n + 8; x := !x lsr 8 end;
    if !x land 0xF = 0 then begin n := !n + 4; x := !x lsr 4 end;
    if !x land 0x3 = 0 then begin n := !n + 2; x := !x lsr 2 end;
    if !x land 0x1 = 0 then !n + 1 else !n

  let equal (a : int array) b = a = b

  let hash (b : int array) =
    let h = ref 0x811c9dc5 in
    for i = 0 to Array.length b - 1 do
      h := (!h lxor b.(i)) * 0x01000193 land max_int
    done;
    !h
end

module Set_tbl = Hashtbl.Make (struct
  type t = int array

  let equal = Bits.equal
  let hash = Bits.hash
end)

(* --- subset construction over the factor language ----------------------- *)

(* Grow [a] to hold at least [need] cells, doubling, new cells [fill]. *)
let ensure a need fill =
  if need <= Array.length !a then ()
  else begin
    let grown = Array.make (max need (2 * Array.length !a)) fill in
    Array.blit !a 0 grown 0 (Array.length !a);
    a := grown
  end

(* Adjacency lists laid flat: the entries of state [s] are
   [first.(s) .. first.(s + 1) - 1]. *)
let flatten lists =
  let n = Array.length lists in
  let first = Array.make (n + 1) 0 in
  Array.iteri (fun s l -> first.(s + 1) <- first.(s) + List.length l) lists;
  (first, Array.make first.(n) 0)

(* Subsets get ids in discovery order: breadth-first from the start
   subset, each subset's successors in ascending symbol code. One walk
   over a subset's members fills a scratch bitset per symbol that
   occurs; only genuinely new subsets are copied out of the scratch.
   Members are walked lowest set bit first, in plain loops, so the walk
   allocates nothing; what the construction allocates is the subsets,
   their table and the transition rows. *)
let max_states = 100_000

let determinize (nfa : Nfa.t) =
  let syms = Array.of_list nfa.Nfa.alphabet in
  let w = Array.length syms in
  let n = nfa.Nfa.nstates in
  let index = Symbol.Table.create (max 1 (2 * w)) in
  Array.iteri (fun i s -> Symbol.Table.replace index s i) syms;
  (* state [s] moves on [code.(k)] to [dest.(k)], and by ε to
     [eps_dest.(k)], for [k] in its flat range *)
  let first, dest = flatten nfa.Nfa.delta in
  let code = Array.make (Array.length dest) 0 in
  Array.iteri
    (fun s l ->
      List.iteri
        (fun i (sym, d) ->
          code.(first.(s) + i) <- Symbol.Table.find index sym;
          dest.(first.(s) + i) <- d)
        l)
    nfa.Nfa.delta;
  let eps_first, eps_dest = flatten nfa.Nfa.eps in
  Array.iteri (fun s l -> List.iteri (fun i d -> eps_dest.(eps_first.(s) + i) <- d) l) nfa.Nfa.eps;
  (* ε-closure in place: the members, then each state as it joins the
     set, are pushed once each, so the stack never holds more than [n] *)
  let stack = Array.make (max 1 n) 0 in
  let close set =
    let top = ref 0 in
    for wi = 0 to Array.length set - 1 do
      let x = ref set.(wi) in
      while !x <> 0 do
        stack.(!top) <- (wi * 63) + Bits.lowest !x;
        incr top;
        x := !x land (!x - 1)
      done
    done;
    while !top > 0 do
      decr top;
      let s = stack.(!top) in
      for k = eps_first.(s) to eps_first.(s + 1) - 1 do
        let d = eps_dest.(k) in
        if not (Bits.get set d) then begin
          Bits.set set d;
          stack.(!top) <- d;
          incr top
        end
      done
    done
  in
  let ids = Set_tbl.create 256 in
  let sets = ref [||] and nsubsets = ref 0 in
  let intern scratch =
    match Set_tbl.find ids scratch with
    | id -> id
    | exception Not_found ->
        let id = !nsubsets in
        if id >= max_states then
          invalid_arg "Dfa.of_nfa: subset construction exceeded max_states";
        incr nsubsets;
        let set = Array.copy scratch in
        Set_tbl.replace ids set id;
        ensure sets (id + 1) [||];
        !sets.(id) <- set;
        id
  in
  (* a factor can start anywhere: the initial subset is every state *)
  let start_set = Bits.create n in
  for s = 0 to n - 1 do
    Bits.set start_set s
  done;
  close start_set;
  let start = intern start_set in
  let row = max 1 w in
  let trans = ref (Array.make (16 * row) (-1)) in
  let scratch = Array.init w (fun _ -> Bits.create n) in
  let hit = Array.make w false in
  let next = ref 0 in
  while !next < !nsubsets do
    let id = !next in
    incr next;
    ensure trans ((id + 1) * row) (-1);
    let set = !sets.(id) in
    for wi = 0 to Array.length set - 1 do
      let x = ref set.(wi) in
      while !x <> 0 do
        let s = (wi * 63) + Bits.lowest !x in
        x := !x land (!x - 1);
        for k = first.(s) to first.(s + 1) - 1 do
          hit.(code.(k)) <- true;
          Bits.set scratch.(code.(k)) dest.(k)
        done
      done
    done;
    for c = 0 to w - 1 do
      if hit.(c) then begin
        hit.(c) <- false;
        let succ = scratch.(c) in
        close succ;
        !trans.((id * w) + c) <- intern succ;
        Array.fill succ 0 (Array.length succ) 0
      end
    done
  done;
  let nstates = !nsubsets in
  { syms; index; start; nstates; trans = Array.sub !trans 0 (nstates * row) }

(* --- Hopcroft minimization ---------------------------------------------- *)

(* Sift [a.(i)] down the max-heap [a.(0 .. k - 1)] ordered by [key]. *)
let rec sift key a i k =
  let l = (2 * i) + 1 in
  if l < k then begin
    let m = if l + 1 < k && key.(a.(l + 1)) > key.(a.(l)) then l + 1 else l in
    if key.(a.(m)) > key.(a.(i)) then begin
      let t = a.(i) in
      a.(i) <- a.(m);
      a.(m) <- t;
      sift key a m k
    end
  end

(* Heapsort [a.(0 .. k - 1)] ascending by [key.(a.(i))], in place. *)
let sort_by key a k =
  for i = (k / 2) - 1 downto 0 do
    sift key a i k
  done;
  for e = k - 1 downto 1 do
    let t = a.(0) in
    a.(0) <- a.(e);
    a.(e) <- t;
    sift key a 0 e
  done

(* All live states are accepting and the dead state is the only
   non-accepting one, so minimization starts from that two-block
   partition and refines by transition behaviour.

   The partition is refinable in place, in flat arrays allocated once:
   [elems] holds every state, block [b] is its segment
   [bfirst.(b) .. bend.(b) - 1], and [loc] is each state's position.
   Marking a state swaps it into the marked prefix of its block, so a
   split only moves a segment boundary: the marked part keeps the
   block's number, the rest takes the next one. The splitter FIFO is a
   ring of [b * w + c], holding each (block, symbol) at most once. The
   blocks a splitter affects split in descending order of their least
   touched state: that order fixes the number each new block gets, and
   with it the output's state numbering, which golden digests pin. *)
let minimize dfa =
  let w = Array.length dfa.syms in
  let n = dfa.nstates in
  if n <= 1 || w = 0 then dfa
  else begin
    let total = n + 1 in
    let dead = n in
    let delta s c = if s = dead then dead else match dfa.trans.((s * w) + c) with -1 -> dead | d -> d in
    (* inverse transitions, flat: the predecessors of q on c are
       pred.(k) for k in [pfirst.(c * total + q) .. pfirst.(c * total + q + 1) - 1];
       counted per bucket, then placed back to front *)
    let m = w * total in
    let pfirst = Array.make (m + 1) 0 in
    for s = 0 to total - 1 do
      for c = 0 to w - 1 do
        let i = (c * total) + delta s c in
        pfirst.(i) <- pfirst.(i) + 1
      done
    done;
    for i = 1 to m do
      pfirst.(i) <- pfirst.(i) + pfirst.(i - 1)
    done;
    let pred = Array.make m 0 in
    for s = 0 to total - 1 do
      for c = 0 to w - 1 do
        let i = (c * total) + delta s c in
        pfirst.(i) <- pfirst.(i) - 1;
        pred.(pfirst.(i)) <- s
      done
    done;
    (* block 0 = the live states, block 1 = the dead state *)
    let elems = Array.init total Fun.id and loc = Array.init total Fun.id in
    let class_of = Array.make total 0 in
    class_of.(dead) <- 1;
    let bfirst = Array.make total 0 and bend = Array.make total 0 in
    bend.(0) <- n;
    bfirst.(1) <- n;
    bend.(1) <- total;
    let nblocks = ref 2 in
    let size b = bend.(b) - bfirst.(b) in
    let queued = Bytes.make m '\000' in
    let ring = Array.make m 0 in
    let head = ref 0 and len = ref 0 in
    let push b c =
      let k = (b * w) + c in
      if Bytes.get queued k = '\000' then begin
        Bytes.set queued k '\001';
        ring.((!head + !len) mod m) <- k;
        incr len
      end
    in
    for c = 0 to w - 1 do
      push (if size 0 <= size 1 then 0 else 1) c
    done;
    (* the current splitter's X: a stack of distinct touched states *)
    let touched = Array.make total 0 and in_x = Bytes.make total '\000' in
    (* per block: its marked prefix length and least marked state; the
       affected blocks, a stack *)
    let marked = Array.make total 0 and least = Array.make total 0 in
    let affected = Array.make total 0 in
    while !len > 0 do
      let k = ring.(!head) in
      head := (!head + 1) mod m;
      decr len;
      Bytes.set queued k '\000';
      let a = k / w and c = k mod w in
      (* X = states leading into block [a] on symbol [c], gathered before
         any marking moves the states of [a] *)
      let ntouched = ref 0 in
      for i = bfirst.(a) to bend.(a) - 1 do
        let j = (c * total) + elems.(i) in
        for e = pfirst.(j) to pfirst.(j + 1) - 1 do
          let p = pred.(e) in
          if Bytes.get in_x p = '\000' then begin
            Bytes.set in_x p '\001';
            touched.(!ntouched) <- p;
            incr ntouched
          end
        done
      done;
      let naffected = ref 0 in
      for t = 0 to !ntouched - 1 do
        let p = touched.(t) in
        Bytes.set in_x p '\000';
        let y = class_of.(p) in
        let hits = marked.(y) in
        if hits = 0 then begin
          affected.(!naffected) <- y;
          incr naffected;
          least.(y) <- p
        end
        else if p < least.(y) then least.(y) <- p;
        let i = bfirst.(y) + hits and lp = loc.(p) in
        let q = elems.(i) in
        elems.(lp) <- q;
        loc.(q) <- lp;
        elems.(i) <- p;
        loc.(p) <- i;
        marked.(y) <- hits + 1
      done;
      sort_by least affected !naffected;
      for t = !naffected - 1 downto 0 do
        let y = affected.(t) in
        let hits = marked.(y) in
        marked.(y) <- 0;
        if hits < size y then begin
          (* split y into (y ∩ X), which keeps y, and (y \ X) *)
          let z = !nblocks in
          incr nblocks;
          bfirst.(z) <- bfirst.(y) + hits;
          bend.(z) <- bend.(y);
          bend.(y) <- bfirst.(z);
          for i = bfirst.(z) to bend.(z) - 1 do
            class_of.(elems.(i)) <- z
          done;
          for c' = 0 to w - 1 do
            if Bytes.get queued ((y * w) + c') <> '\000' then push z c'
            else push (if size y <= size z then y else z) c'
          done
        end
      done
    done;
    (* rebuild: live blocks (not the dead state's) renumbered densely *)
    let dead_block = class_of.(dead) in
    let renum = Array.make !nblocks (-1) in
    let count = ref 0 in
    for b = 0 to !nblocks - 1 do
      if b <> dead_block then begin
        renum.(b) <- !count;
        incr count
      end
    done;
    let n' = !count in
    let trans = Array.make (max 1 (n' * w)) (-1) in
    for b = 0 to !nblocks - 1 do
      if renum.(b) >= 0 then begin
        let rep = elems.(bfirst.(b)) in
        for c = 0 to w - 1 do
          let q = delta rep c in
          trans.((renum.(b) * w) + c) <- (if q = dead then -1 else renum.(class_of.(q)))
        done
      end
    done;
    { dfa with start = renum.(class_of.(dfa.start)); nstates = n'; trans }
  end

let of_nfa nfa = minimize (determinize nfa)

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph dfa {\n  rankdir=LR;\n  node [shape=circle];\n";
  Buffer.add_string buf
    (Printf.sprintf "  init [shape=point]; init -> s%d;\n" t.start);
  let w = Array.length t.syms in
  for s = 0 to t.nstates - 1 do
    Buffer.add_string buf (Printf.sprintf "  s%d [label=\"%d\"];\n" s s);
    for c = 0 to w - 1 do
      let d = t.trans.((s * w) + c) in
      if d >= 0 then
        Buffer.add_string buf
          (Printf.sprintf "  s%d -> s%d [label=\"%s\"];\n" s d
             (String.escaped (Symbol.to_string t.syms.(c))))
    done
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
