(* The provenance lattice of the leakage analysis: finite sets of
   atoms (table.column, cardinality class), each carrying a def-use
   witness path. Join is set union with per-source cardinality max;
   equality ignores the witness (the {!Strdom} origin idiom), so the
   dataflow fixpoint converges even when loops keep rewriting paths. *)

type card = C_one | C_few | C_many

let card_rank = function C_one -> 0 | C_few -> 1 | C_many -> 2
let card_max a b = if card_rank a >= card_rank b then a else b
let card_min a b = if card_rank a <= card_rank b then a else b

(* Must agree with {!Sqldb.Sql_pp.arity_class}: the classes are the
   ?{1}/?{few}/?{many} buckets of the query-signature syntax. *)
let card_of_arity n = if n <= 1 then C_one else if n <= 8 then C_few else C_many

let card_to_string = function
  | C_one -> "?{1}"
  | C_few -> "?{few}"
  | C_many -> "?{many}"

type src =
  | Col of { table : string; column : string }  (* column "*" = whole row *)
  | Opaque of string

let src_to_string = function
  | Col { table; column } -> table ^ "." ^ column
  | Opaque what -> "<" ^ what ^ ">"

module SrcMap = Map.Make (struct
  type t = src

  let compare = Stdlib.compare
end)

type atom = { src : src; card : card; origin : string list }

(* src -> (card, origin). The origin is carried along but never part of
   the lattice order. *)
type t = (card * string list) SrcMap.t

let empty : t = SrcMap.empty
let is_empty = SrcMap.is_empty

let singleton ?(origin = []) src card : t = SrcMap.singleton src (card, origin)

(* Deterministic origin pick on joins: the shorter witness, ties broken
   lexicographically, so reported paths are stable across runs. *)
let pick_origin a b =
  match (a, b) with
  | [], o | o, [] -> o
  | a, b ->
      let la = List.length a and lb = List.length b in
      if la < lb then a
      else if lb < la then b
      else if Stdlib.compare a b <= 0 then a
      else b

let union (a : t) (b : t) : t =
  SrcMap.union
    (fun _ (ca, oa) (cb, ob) -> Some (card_max ca cb, pick_origin oa ob))
    a b

let equal (a : t) (b : t) =
  SrcMap.equal (fun (ca, _) (cb, _) -> ca = cb) a b

let mem src (v : t) = SrcMap.mem src v

(* Append a def-use step. Skips immediate repetition (loop-carried
   rebinds of the same variable) and caps the path length, so witness
   text stays readable on deep call chains. *)
let max_origin_steps = 12

let bind_origin step (v : t) : t =
  SrcMap.map
    (fun (c, origin) ->
      let keep =
        match List.rev origin with
        | last :: _ when last = step -> true
        | _ -> List.length origin >= max_origin_steps
      in
      (c, if keep then origin else origin @ [ step ]))
    v

let atoms (v : t) =
  SrcMap.fold (fun src (card, origin) acc -> { src; card; origin } :: acc) v []
  |> List.sort (fun a b -> Stdlib.compare (a.src, a.card) (b.src, b.card))

let atom_to_string a =
  Printf.sprintf "%s %s" (src_to_string a.src) (card_to_string a.card)

let witness_to_string a = String.concat " -> " a.origin
