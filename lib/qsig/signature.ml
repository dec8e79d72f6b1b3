module Ast = Sqldb.Sql_ast

type t = string

let malformed = "<malformed>"

let of_statement stmt = Sqldb.Sql_pp.signature stmt

let of_sql sql =
  Result.map of_statement (Sqldb.Sql_parser.parse sql)

let to_string s = s
let compare = String.compare
let equal = String.equal

(* ------------------------------------------------------------------ *)
(* Slot extraction.

   A slot is one literal position of the erased signature, so the slot
   vector of a statement depends only on its signature: WHERE literals
   appear in source order, an IN-list is a single slot aggregating its
   members, INSERT slots aggregate per column position across tuples,
   and LIMIT contributes a final slot. *)

type slot_value =
  | V_int of int
  | V_str of string
  | V_null
  | V_free  (** an unbound [?] placeholder: the slot can hold anything *)

let value_of_literal = function
  | Ast.L_int n -> V_int n
  | Ast.L_str s -> V_str s
  | Ast.L_null -> V_null
  | Ast.L_param _ -> V_free

let rec expr_slots acc = function
  | Ast.Col _ -> acc
  | Ast.Lit l -> [ value_of_literal l ] :: acc
  | Ast.Cmp (_, a, b) | Ast.And (a, b) | Ast.Or (a, b) | Ast.Like (a, b) ->
      expr_slots (expr_slots acc a) b
  | Ast.Not a -> expr_slots acc a
  | Ast.In (a, lits) -> List.map value_of_literal lits :: expr_slots acc a

let where_slots acc = function None -> acc | Some e -> expr_slots acc e

let slots stmt : slot_value list array =
  let rev =
    match stmt with
    | Ast.Create _ -> []
    | Ast.Insert { values; _ } -> (
        match values with
        | [] -> []
        | first :: _ ->
            let width = List.length first in
            let cols = Array.make width [] in
            List.iter
              (fun tuple ->
                List.iteri
                  (fun i lit ->
                    if i < width then cols.(i) <- value_of_literal lit :: cols.(i))
                  tuple)
              values;
            Array.to_list cols |> List.rev_map List.rev)
    | Ast.Select { where; limit; _ } ->
        let acc = where_slots [] where in
        (match limit with Some n -> [ V_int n ] :: acc | None -> acc)
    | Ast.Update { sets; where; _ } ->
        let acc =
          List.fold_left (fun acc (_, l) -> [ value_of_literal l ] :: acc) [] sets
        in
        where_slots acc where
    | Ast.Delete { where; _ } -> where_slots [] where
  in
  Array.of_list (List.rev rev)

(* ------------------------------------------------------------------ *)
(* Predicate-widening check: three-valued evaluation of the WHERE
   clause with every non-constant atom Unknown. A clause that is true
   regardless of row data (Or of anything with a true constant
   comparison) is the tautology shape of Attack 5. *)

type warning = Tautology | Constant_comparison

type tri = T | F | U

let tri_and a b =
  match (a, b) with F, _ | _, F -> F | T, T -> T | _ -> U

let tri_or a b = match (a, b) with T, _ | _, T -> T | F, F -> F | _ -> U

let tri_not = function T -> F | F -> T | U -> U

let concrete = function
  | Ast.L_int _ | Ast.L_str _ | Ast.L_null -> true
  | Ast.L_param _ -> false

let literal_value = function
  | Ast.L_int n -> Some (Sqldb.Value.Int n)
  | Ast.L_str s -> Some (Sqldb.Value.Str s)
  | Ast.L_null -> Some Sqldb.Value.Null
  | Ast.L_param _ -> None

let cmp_holds op c =
  match op with
  | Ast.Ceq -> c = 0
  | Ast.Cne -> c <> 0
  | Ast.Clt -> c < 0
  | Ast.Cle -> c <= 0
  | Ast.Cgt -> c > 0
  | Ast.Cge -> c >= 0

let rec tri_eval ~saw_constant = function
  | Ast.Cmp (op, Ast.Lit a, Ast.Lit b) when concrete a && concrete b -> (
      saw_constant := true;
      match (literal_value a, literal_value b) with
      | Some va, Some vb -> (
          match Sqldb.Value.compare_values va vb with
          | Some c -> if cmp_holds op c then T else F
          | None -> F (* NULL comparison: SQL-false *))
      | _ -> U)
  | Ast.In (Ast.Lit a, lits) when concrete a && List.for_all concrete lits ->
      saw_constant := true;
      let va = literal_value a in
      let hit lit =
        match (va, literal_value lit) with
        | Some va, Some vl -> Sqldb.Value.compare_values va vl = Some 0
        | _ -> false
      in
      if List.exists hit lits then T else F
  | Ast.And (a, b) -> tri_and (tri_eval ~saw_constant a) (tri_eval ~saw_constant b)
  | Ast.Or (a, b) -> tri_or (tri_eval ~saw_constant a) (tri_eval ~saw_constant b)
  | Ast.Not a -> tri_not (tri_eval ~saw_constant a)
  | Ast.Cmp _ | Ast.Like _ | Ast.In _ | Ast.Col _ | Ast.Lit _ -> U

let where_warnings where =
  match where with
  | None -> []
  | Some e ->
      let saw_constant = ref false in
      let verdict = tri_eval ~saw_constant e in
      let acc = if verdict = T then [ Tautology ] else [] in
      if !saw_constant && verdict <> T then Constant_comparison :: acc else acc

let widening_warnings = function
  | Ast.Create _ | Ast.Insert _ -> []
  | Ast.Select { where; _ } | Ast.Update { where; _ } | Ast.Delete { where; _ } ->
      where_warnings where
