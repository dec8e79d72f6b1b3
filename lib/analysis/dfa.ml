type t = {
  syms : Symbol.t array;
  index : int Symbol.Table.t;
  start : int;
  nstates : int;
  trans : int array;  (* nstates * width, row-major; -1 = dead *)
}

let nstates t = t.nstates
let width t = Array.length t.syms
let alphabet t = Array.to_list t.syms
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

  let iter f b =
    Array.iteri
      (fun wi w ->
        if w <> 0 then
          for bit = 0 to 62 do
            if w land (1 lsl bit) <> 0 then f ((wi * 63) + bit)
          done)
      b

  let equal (a : int array) b = a = b

  let hash (b : int array) =
    let h = ref 0x811c9dc5 in
    Array.iter (fun v -> h := (!h lxor v) * 0x01000193 land max_int) b;
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

(* Subsets get ids in discovery order: breadth-first from the start
   subset, each subset's successors in ascending symbol code. One walk
   over a subset's members fills a scratch bitset per symbol that
   occurs; only genuinely new subsets are copied out of the scratch. *)
let determinize ?(max_states = 100_000) (nfa : Nfa.t) =
  let syms = Array.of_list nfa.Nfa.alphabet in
  let w = Array.length syms in
  let n = nfa.Nfa.nstates in
  let index = Symbol.Table.create (max 1 (2 * w)) in
  Array.iteri (fun i s -> Symbol.Table.replace index s i) syms;
  (* coded move lists, flat: state [s] moves on [code.(k)] to [dest.(k)]
     for [k] in [first.(s) .. first.(s + 1) - 1] *)
  let first = Array.make (n + 1) 0 in
  Array.iteri (fun s l -> first.(s + 1) <- first.(s) + List.length l) nfa.Nfa.delta;
  let code = Array.make first.(n) 0 and dest = Array.make first.(n) 0 in
  Array.iteri
    (fun s l ->
      List.iteri
        (fun i (sym, d) ->
          code.(first.(s) + i) <- Symbol.Table.find index sym;
          dest.(first.(s) + i) <- d)
        l)
    nfa.Nfa.delta;
  (* ε-closure in place: the members, then each state as it joins the
     set, are pushed once each, so the stack never holds more than [n] *)
  let stack = Array.make (max 1 n) 0 in
  let close set =
    let top = ref 0 in
    let push s =
      stack.(!top) <- s;
      incr top
    in
    Bits.iter push set;
    while !top > 0 do
      decr top;
      List.iter
        (fun d ->
          if not (Bits.get set d) then begin
            Bits.set set d;
            push d
          end)
        nfa.Nfa.eps.(stack.(!top))
    done
  in
  let ids = Set_tbl.create 256 in
  let sets = ref [||] and nsubsets = ref 0 in
  let intern scratch =
    match Set_tbl.find_opt ids scratch with
    | Some id -> id
    | None ->
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
    Bits.iter
      (fun s ->
        for k = first.(s) to first.(s + 1) - 1 do
          hit.(code.(k)) <- true;
          Bits.set scratch.(code.(k)) dest.(k)
        done)
      !sets.(id);
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

(* All live states are accepting and the dead state is the only
   non-accepting one, so minimization starts from that two-block
   partition and refines by transition behaviour. *)
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
    let class_of = Array.make total 0 in
    class_of.(dead) <- 1;
    let members = Array.make total [] in
    members.(0) <- List.init n (fun i -> i);
    members.(1) <- [ dead ];
    let sizes = Array.make total 0 in
    sizes.(0) <- n;
    sizes.(1) <- 1;
    let nblocks = ref 2 in
    let in_w = Bytes.make (total * w) '\000' in
    let queued b c = Bytes.get in_w ((b * w) + c) <> '\000' in
    let work = Queue.create () in
    let push b c =
      if not (queued b c) then begin
        Bytes.set in_w ((b * w) + c) '\001';
        Queue.add (b, c) work
      end
    in
    for c = 0 to w - 1 do
      push (if sizes.(0) <= sizes.(1) then 0 else 1) c
    done;
    let marked = Array.make total 0 in
    (* membership in the current splitter's X, cleared through the
       touched list after each splitter *)
    let x_mem = Array.make total false in
    while not (Queue.is_empty work) do
      let a, c = Queue.pop work in
      Bytes.set in_w ((a * w) + c) '\000';
      (* X = states leading into block [a] on symbol [c] *)
      let touched = ref [] in
      List.iter
        (fun q ->
          let i = (c * total) + q in
          for k = pfirst.(i) to pfirst.(i + 1) - 1 do
            let p = pred.(k) in
            if not x_mem.(p) then begin
              x_mem.(p) <- true;
              touched := p :: !touched
            end
          done)
        members.(a);
      (* ascending state order: blocks split, and so are numbered, in
         the order a full scan of the states would meet them *)
      let touched = List.sort Int.compare !touched in
      let affected = ref [] in
      List.iter
        (fun p ->
          let y = class_of.(p) in
          if marked.(y) = 0 then affected := y :: !affected;
          marked.(y) <- marked.(y) + 1)
        touched;
      List.iter
        (fun y ->
          let hits = marked.(y) in
          marked.(y) <- 0;
          if hits > 0 && hits < sizes.(y) then begin
            (* split y into (y ∩ X) and (y \ X) *)
            let inside, outside = List.partition (fun p -> x_mem.(p)) members.(y) in
            let z = !nblocks in
            incr nblocks;
            members.(y) <- inside;
            sizes.(y) <- hits;
            members.(z) <- outside;
            sizes.(z) <- List.length outside;
            List.iter (fun p -> class_of.(p) <- z) outside;
            for c' = 0 to w - 1 do
              if queued y c' then push z c'
              else push (if sizes.(y) <= sizes.(z) then y else z) c'
            done
          end)
        !affected;
      List.iter (fun p -> x_mem.(p) <- false) touched
    done;
    (* rebuild: live blocks (not the dead state's) renumbered densely *)
    let dead_block = class_of.(dead) in
    let renum = Array.make !nblocks (-1) in
    let count = ref 0 in
    for b = 0 to !nblocks - 1 do
      if b <> dead_block && members.(b) <> [] then begin
        renum.(b) <- !count;
        incr count
      end
    done;
    let n' = !count in
    let trans = Array.make (max 1 (n' * w)) (-1) in
    for b = 0 to !nblocks - 1 do
      if renum.(b) >= 0 then begin
        let rep = List.hd members.(b) in
        for c = 0 to w - 1 do
          let q = delta rep c in
          trans.((renum.(b) * w) + c) <- (if q = dead then -1 else renum.(class_of.(q)))
        done
      end
    done;
    { dfa with start = renum.(class_of.(dfa.start)); nstates = n'; trans }
  end

let of_nfa ?max_states nfa = minimize (determinize ?max_states nfa)

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
