(* Abstract string domain for statically enumerating the SQL texts an
   applang expression can evaluate to. A value is a finite disjunction
   of templates: sequences of literal fragments, typed parameter holes
   (unknown interpolated values, tainted or not), and bounded repetition
   classes introduced by loop widening. The domain is deliberately small
   — just enough structure for query-signature inference — and every
   cap degrades towards [Any], never towards dropping a behavior. *)

type hole = {
  tainted : bool;  (* may carry attacker-controlled input *)
  digits : bool;  (* renders as digits only (int-valued) *)
  origin : string list;  (* provenance chain, latest binding first *)
}

type piece =
  | Lit of string
  | Hole of hole
  | Rep of piece list  (* the sequence repeated >= 0 times *)

type kind = K_int | K_str | K_other

type tmpl = { kind : kind; pieces : piece list }

type value =
  | Templates of tmpl list  (* finite disjunction; [] is bottom *)
  | Any of bool  (* top; payload: may be tainted *)

let max_templates = 8
let max_pieces = 64
let max_renders = 48
let max_origin = 8
let rep_counts = [ 0; 1; 2; 9 ]

(* ------------------------------------------------------------------ *)
(* Structural equality, ignoring hole provenance (origins grow while
   the fixpoint iterates; they must not keep it from converging). *)

let rec piece_eq a b =
  match (a, b) with
  | Lit x, Lit y -> String.equal x y
  | Hole x, Hole y -> x.tainted = y.tainted && x.digits = y.digits
  | Rep x, Rep y -> pieces_eq x y
  | (Lit _ | Hole _ | Rep _), _ -> false

and pieces_eq a b =
  List.length a = List.length b && List.for_all2 piece_eq a b

let tmpl_eq a b = a.kind = b.kind && pieces_eq a.pieces b.pieces

let equal a b =
  match (a, b) with
  | Templates x, Templates y ->
      List.length x = List.length y && List.for_all2 tmpl_eq x y
  | Any x, Any y -> x = y
  | (Templates _ | Any _), _ -> false

(* ------------------------------------------------------------------ *)
(* Prefix consumption, splitting literals at string level: adjacent
   literals are merged by normalization, so "the sequence [pre] is a
   prefix of [l]" must allow a literal of one side to be a string
   prefix of the other's. Returns the remainder of [l]. *)

let drop_lit pre s = String.sub s (String.length pre) (String.length s - String.length pre)

let rec consume pre l =
  match (pre, l) with
  | [], rest -> Some rest
  | Lit a :: pre', Lit b :: l' ->
      if String.equal a b then consume pre' l'
      else if String.length a < String.length b && String.starts_with ~prefix:a b then
        consume pre' (Lit (drop_lit a b) :: l')
      else if String.length b < String.length a && String.starts_with ~prefix:b a then
        consume (Lit (drop_lit b a) :: pre') l'
      else None
  | p :: pre', q :: l' when piece_eq p q -> consume pre' l'
  | _ -> None

(* Normalization: merge adjacent literals, drop empty ones, and absorb
   a repetition body appearing right after its own [Rep] (s* s = s*, a
   sound widening since [Rep] already means "zero or more"). *)

let norm_pieces pieces =
  let rec go = function
    | Lit "" :: rest -> go rest
    | Lit a :: Lit b :: rest -> go (Lit (a ^ b) :: rest)
    | Rep [] :: rest -> go rest
    | Rep s :: rest -> (
        let s = go s in
        match consume s rest with
        | Some rest' -> go (Rep s :: rest')
        | None -> (
            match rest with
            | Rep s' :: rest' when pieces_eq s s' -> go (Rep s :: rest')
            | _ -> Rep s :: go rest))
    | p :: rest -> p :: go rest
    | [] -> []
  in
  go pieces

let norm t = { t with pieces = norm_pieces t.pieces }

(* ------------------------------------------------------------------ *)
(* Taint and provenance. *)

let rec piece_tainted = function
  | Lit _ -> false
  | Hole h -> h.tainted
  | Rep s -> List.exists piece_tainted s

let tmpl_tainted t = List.exists piece_tainted t.pieces

let tainted = function
  | Templates ts -> List.exists tmpl_tainted ts
  | Any t -> t

(* The provenance chain of some tainted hole, source-first. *)
let witness v =
  let rec of_pieces = function
    | [] -> None
    | Lit _ :: rest -> of_pieces rest
    | Hole h :: rest -> if h.tainted then Some (List.rev h.origin) else of_pieces rest
    | Rep s :: rest -> ( match of_pieces s with Some w -> Some w | None -> of_pieces rest)
  in
  match v with
  | Templates ts ->
      List.fold_left
        (fun acc t -> match acc with Some _ -> acc | None -> of_pieces t.pieces)
        None ts
  | Any true -> Some [ "<unknown>" ]
  | Any false -> None

(* Record that the value was just bound to [var]: extends the
   provenance of every hole (capped; idempotent per variable). *)
let bind_origin var v =
  let tag h =
    match h.origin with
    | x :: _ when String.equal x var -> h
    | l when List.length l >= max_origin -> h
    | l -> { h with origin = var :: l }
  in
  let rec piece = function
    | Lit _ as p -> p
    | Hole h -> Hole (tag h)
    | Rep s -> Rep (List.map piece s)
  in
  match v with
  | Templates ts -> Templates (List.map (fun t -> { t with pieces = List.map piece t.pieces }) ts)
  | Any _ as a -> a

(* ------------------------------------------------------------------ *)
(* Constructors. *)

let bottom = Templates []
let const_str s = Templates [ { kind = K_str; pieces = (if s = "" then [] else [ Lit s ]) } ]
let const_int n = Templates [ { kind = K_int; pieces = [ Lit (string_of_int n) ] } ]
let const_other s = Templates [ { kind = K_other; pieces = [ Lit s ] } ]

let bool_val =
  Templates
    [
      { kind = K_other; pieces = [ Lit "true" ] };
      { kind = K_other; pieces = [ Lit "false" ] };
    ]

let hole ?(digits = false) ~tainted ~origin () =
  Templates
    [
      {
        kind = (if digits then K_int else K_other);
        pieces = [ Hole { tainted; digits; origin = [ origin ] } ];
      };
    ]

let str_hole ~tainted ~origin () =
  Templates [ { kind = K_str; pieces = [ Hole { tainted; digits = false; origin = [ origin ] } ] } ]

let const_int_opt = function
  | Templates [ { kind = K_int; pieces = [ Lit s ] } ] -> int_of_string_opt s
  | _ -> None

let definitely_int = function
  | Templates ts -> ts <> [] && List.for_all (fun t -> t.kind = K_int) ts
  | Any _ -> false

(* ------------------------------------------------------------------ *)
(* Join with widening.

   Plain join is union with structural dedup. When the set outgrows
   [max_templates] we first try to collapse growth chains — a template
   extending another by a suffix is the signature of a loop appending
   pieces, widened to prefix ++ Rep suffix — then drop templates whose
   language another already covers. If the set is still too big the
   value degrades to [Any]. *)

(* Does [u] (which may contain Reps) cover the concrete-ish [t]? *)
let covers u t =
  let fuel = ref 2000 in
  let rec go u t =
    decr fuel;
    if !fuel <= 0 then false
    else
      match (u, t) with
      | [], [] -> true
      | Rep s :: u', t -> (
          go u' t || match consume s t with Some rest -> go u rest | None -> false)
      | Lit a :: u', Lit b :: t'
        when String.length a < String.length b && String.starts_with ~prefix:a b ->
          go u' (Lit (drop_lit a b) :: t')
      | p :: u', q :: t' -> piece_eq p q && go u' t'
      | _, _ -> false
  in
  go u t

let widen_pair a b =
  if a.kind <> b.kind then None
  else
    match consume a.pieces b.pieces with
    | Some [] -> Some a
    | Some suffix -> Some (norm { a with pieces = a.pieces @ [ Rep suffix ] })
    | None -> (
        match consume b.pieces a.pieces with
        | Some suffix -> Some (norm { b with pieces = b.pieces @ [ Rep suffix ] })
        | None -> None)

(* Keep-first cover dedup: a template already kept that covers the
   candidate wins; a candidate that covers previously kept templates
   subsumes them. *)
let drop_covered ts =
  List.fold_left
    (fun kept t ->
      if List.exists (fun u -> u.kind = t.kind && covers u.pieces t.pieces) kept then kept
      else
        List.filter (fun u -> not (u.kind = t.kind && covers t.pieces u.pieces)) kept
        @ [ t ])
    [] ts

let collapse ts =
  let rec pass = function
    | [] -> []
    | t :: rest -> (
        let rec try_widen acc = function
          | [] -> None
          | u :: us -> (
              match widen_pair t u with
              | Some w -> Some (w :: List.rev_append acc us)
              | None -> try_widen (u :: acc) us)
        in
        match try_widen [] rest with
        | Some merged -> pass merged
        | None -> t :: pass rest)
  in
  drop_covered (pass ts)

let add_tmpl acc t = if List.exists (tmpl_eq t) acc then acc else acc @ [ t ]

let join a b =
  match (a, b) with
  | Any x, v | v, Any x -> Any (x || tainted v)
  | Templates x, Templates y ->
      let u = List.fold_left add_tmpl x y in
      if List.length u <= max_templates then Templates u
      else
        let c = collapse u in
        if List.length c <= max_templates then Templates c
        else Any (List.exists tmpl_tainted c)

(* ------------------------------------------------------------------ *)
(* String concatenation (applang [Add] / [strcat] semantics: both
   sides render through [to_display], result is a string). *)

let concat a b =
  match (a, b) with
  | Templates [], _ | _, Templates [] -> bottom
  | Any x, v | v, Any x -> Any (x || tainted v)
  | Templates x, Templates y ->
      let pairs =
        List.concat_map
          (fun t -> List.map (fun u -> norm { kind = K_str; pieces = t.pieces @ u.pieces }) y)
          x
      in
      let pairs = List.fold_left add_tmpl [] pairs in
      if
        List.length pairs > max_templates
        || List.exists (fun t -> List.length t.pieces > max_pieces) pairs
      then
        let c = collapse pairs in
        if
          List.length c <= max_templates
          && List.for_all (fun t -> List.length t.pieces <= max_pieces) c
        then Templates c
        else Any (List.exists tmpl_tainted c)
      else Templates pairs

(* Force string kind, keeping the pieces (to_string / strcpy). *)
let as_string = function
  | Templates ts -> Templates (List.map (fun t -> { t with kind = K_str }) ts)
  | Any _ as a -> a

(* ------------------------------------------------------------------ *)
(* Rendering: expand each template into concrete candidate SQL texts.

   Holes stand for literal-shaped runtime values. A digit hole renders
   as [0] anywhere (any integer yields the same erased signature). A
   string hole inside a single-quoted literal renders as the empty
   string (the quotes around it complete the literal). A string hole in
   structural position is rendered as [0] too, but makes the rendering
   inexact: a non-numeric runtime value there could parse as an
   identifier and change the signature. Reps are expanded at 0, 1, 2
   and 9 repetitions, covering the canonicalizer's 1 / few / many
   arity classes. *)

type rendering = { strings : string list; exact : bool; constant : bool }

let rec expand_reps depth pieces : piece list list option =
  (* Returns the concrete piece-list choices, or None when nesting is
     too deep to enumerate faithfully. *)
  if depth > 2 then None
  else
    match pieces with
    | [] -> Some [ [] ]
    | Rep s :: rest -> (
        match expand_reps (depth + 1) s with
        | None -> None
        | Some body_choices -> (
            match expand_reps depth rest with
            | None -> None
            | Some rest_choices ->
                let out = ref [] in
                List.iter
                  (fun k ->
                    List.iter
                      (fun body ->
                        let copies = List.concat (List.init k (fun _ -> body)) in
                        List.iter (fun r -> out := (copies @ r) :: !out) rest_choices)
                      body_choices)
                  rep_counts;
                if List.length !out > max_renders then None else Some (List.rev !out)))
    | p :: rest -> (
        match expand_reps depth rest with
        | None -> None
        | Some choices -> Some (List.map (fun r -> p :: r) choices))

(* Count of unescaped single quotes in a literal fragment. *)
let quote_flips s =
  let n = ref 0 in
  String.iter (fun c -> if c = '\'' then incr n) s;
  !n

let render_pieces pieces =
  let buf = Buffer.create 64 in
  let in_quote = ref false in
  let exact = ref true in
  List.iter
    (fun p ->
      match p with
      | Lit s ->
          Buffer.add_string buf s;
          if quote_flips s land 1 = 1 then in_quote := not !in_quote
      | Hole h ->
          if h.digits then Buffer.add_string buf "0"
          else if !in_quote then () (* completes the surrounding literal *)
          else begin
            Buffer.add_string buf "0";
            exact := false
          end
      | Rep _ -> assert false (* expanded away *))
    pieces;
  (Buffer.contents buf, !exact)

let is_constant_tmpl t =
  List.for_all (function Lit _ -> true | Hole _ | Rep _ -> false) t.pieces

let rec rep_depth = function
  | Lit _ | Hole _ -> 0
  | Rep s -> 1 + List.fold_left (fun m p -> max m (rep_depth p)) 0 s

let render_tmpl t =
  match expand_reps 0 t.pieces with
  | None -> { strings = []; exact = false; constant = false }
  | Some choices ->
      (* Nested repetitions expand each copy with one inner choice, so
         the enumeration is no longer exhaustive. *)
      let nested = List.fold_left (fun m p -> max m (rep_depth p)) 0 t.pieces > 1 in
      let exact = ref (not nested) in
      let strings =
        List.filter_map
          (fun pieces ->
            let s, ex = render_pieces pieces in
            if not ex then exact := false;
            Some s)
          choices
      in
      let strings = List.sort_uniq compare strings in
      if List.length strings > max_renders then { strings = []; exact = false; constant = false }
      else { strings; exact = !exact; constant = is_constant_tmpl t }

let render = function
  | Any _ -> [ { strings = []; exact = false; constant = false } ]
  | Templates ts -> List.map render_tmpl ts
