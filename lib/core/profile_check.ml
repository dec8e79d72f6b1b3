module Symbol = Analysis.Symbol
module Vet = Analysis.Vet
module Diag = Analysis.Diag

type policy = Off | Warn | Enforce

(* The profile's label view: CMarkov-style profiles never saw DB-output
   labels, so the static facts must drop them too before comparing. *)
let project_facts (profile : Profile.t) (facts : Vet.facts) =
  if profile.Profile.params.Profile.use_labels then facts
  else
    {
      Vet.symbols = Symbol.Set.map Symbol.strip_label facts.Vet.symbols;
      pairs =
        List.sort_uniq compare
          (List.map (fun (c, s) -> (c, Symbol.strip_label s)) facts.Vet.pairs);
    }

let automaton (profile : Profile.t) (stage : Vet.stage) =
  Analysis.Seqauto.build ~entry:stage.Vet.entry
    ~use_labels:profile.Profile.params.Profile.use_labels stage.Vet.pruned stage.Vet.callgraph

(* Bigrams the trained model actually supports: (a, b) such that some
   state pair (i, j) emits a from i, transitions i -> j, and emits b
   from j, each with probability clearly above the Baum-Welch smoothing
   floor (1e-6) — the floor keeps every cell non-zero, so "supported"
   needs a coarser threshold. With E(o) the states emitting o and R(a)
   the states some member of E(a) moves to, (a, b) is supported iff
   R(a) and E(b) meet: both are bitsets over the model's states, so
   each pair costs a few word ANDs. *)
let support_epsilon = 1e-4

let model_bigrams (profile : Profile.t) =
  let model = profile.Profile.model in
  let n = model.Hmm.n and m = model.Hmm.m in
  let alphabet = profile.Profile.alphabet in
  let words = (n + 62) / 63 in
  let set b i = b.(i / 63) <- b.(i / 63) lor (1 lsl (i mod 63)) in
  let a = model.Hmm.a.Mlkit.Matrix.data and b = model.Hmm.b.Mlkit.Matrix.data in
  let emitters = Array.init m (fun _ -> Array.make words 0) in
  let reach = Array.init m (fun _ -> Array.make words 0) in
  let succ = Array.make words 0 in
  for i = 0 to n - 1 do
    Array.fill succ 0 words 0;
    for j = 0 to n - 1 do
      if a.((i * n) + j) > support_epsilon then set succ j
    done;
    for o = 0 to m - 1 do
      if b.((i * m) + o) > support_epsilon then begin
        set emitters.(o) i;
        let r = reach.(o) in
        for k = 0 to words - 1 do
          r.(k) <- r.(k) lor succ.(k)
        done
      end
    done
  done;
  let bigrams = ref [] in
  for x = m - 1 downto 0 do
    for y = m - 1 downto 0 do
      let k = ref 0 in
      while !k < words && reach.(x).(!k) land emitters.(y).(!k) = 0 do
        incr k
      done;
      if !k < words then bigrams := [ alphabet.(x); alphabet.(y) ] :: !bigrams
    done
  done;
  !bigrams

let coverage ?automaton (profile : Profile.t) facts =
  let known_pairs =
    Hashtbl.fold (fun p () acc -> p :: acc) profile.Profile.known_pairs []
    |> List.sort compare
  in
  let automaton =
    Option.map (fun a -> (Analysis.Seqauto.accepts a, model_bigrams profile)) automaton
  in
  Vet.check_coverage ?automaton (project_facts profile facts)
    ~alphabet:(Array.to_list profile.Profile.alphabet)
    ~known_pairs

(* both halves come sorted, so merging them is sorting their append *)
let check ?automaton stage profile =
  List.merge Diag.compare (Vet.check_program stage)
    (coverage ?automaton profile stage.Vet.facts)

let apply policy ?automaton stage profile =
  match policy with
  | Off -> []
  | Warn -> check ?automaton stage profile
  | Enforce -> (
      let diags = check ?automaton stage profile in
      match Diag.errors diags with
      | [] -> diags
      | errs ->
          invalid_arg
            (Printf.sprintf "Profile_check: profile failed vet (%s): %s"
               (Diag.summary diags)
               (String.concat "; " (List.map Diag.to_string errs))))
