open Sql_ast

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '\'';
  String.iter
    (fun c ->
      if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
    s;
  Buffer.add_char buf '\'';
  Buffer.contents buf

let literal ~erase = function
  | L_int n -> if erase then "?" else string_of_int n
  | L_str s -> if erase then "?" else quote s
  | L_null -> "NULL"
  | L_param _ -> "?"

(* Arity class used by [signature]: collapses IN-list and VALUES-tuple
   counts so profiles are invariant under list length within a class. *)
let arity_class n = if n <= 1 then "1" else if n <= 8 then "few" else "many"

let cmp_to_string = function
  | Ceq -> "="
  | Cne -> "<>"
  | Clt -> "<"
  | Cle -> "<="
  | Cgt -> ">"
  | Cge -> ">="

(* Precedence: OR < AND < NOT < predicates. *)
let rec expr_to_string ~erase ctx e =
  let wrap p body = if p < ctx then "(" ^ body ^ ")" else body in
  match e with
  | Col c -> c
  | Lit l -> literal ~erase l
  | Cmp (op, a, b) ->
      Printf.sprintf "%s %s %s"
        (expr_to_string ~erase 4 a)
        (cmp_to_string op)
        (expr_to_string ~erase 4 b)
  | Like (a, b) ->
      Printf.sprintf "%s LIKE %s" (expr_to_string ~erase 4 a) (expr_to_string ~erase 4 b)
  | In (a, lits) ->
      let members =
        if erase then Printf.sprintf "?{%s}" (arity_class (List.length lits))
        else String.concat ", " (List.map (literal ~erase) lits)
      in
      Printf.sprintf "%s IN (%s)" (expr_to_string ~erase 4 a) members
  | Not a -> wrap 3 ("NOT " ^ expr_to_string ~erase 3 a)
  | And (a, b) ->
      wrap 2 (Printf.sprintf "%s AND %s" (expr_to_string ~erase 2 a) (expr_to_string ~erase 2 b))
  | Or (a, b) ->
      wrap 1 (Printf.sprintf "%s OR %s" (expr_to_string ~erase 1 a) (expr_to_string ~erase 1 b))

let render ~erase stmt =
  let where w =
    match w with
    | None -> ""
    | Some e -> " WHERE " ^ expr_to_string ~erase 0 e
  in
  match stmt with
  | Create { table; columns } ->
      Printf.sprintf "CREATE TABLE %s (%s)" table (String.concat ", " columns)
  | Insert { table; columns; values } ->
      let cols =
        match columns with
        | None -> ""
        | Some cs -> Printf.sprintf " (%s)" (String.concat ", " cs)
      in
      let tuple lits =
        Printf.sprintf "(%s)" (String.concat ", " (List.map (literal ~erase) lits))
      in
      let tuples =
        match values with
        | first :: _ :: _ when erase ->
            Printf.sprintf "%s {x%s}" (tuple first) (arity_class (List.length values))
        | _ -> String.concat ", " (List.map tuple values)
      in
      Printf.sprintf "INSERT INTO %s%s VALUES %s" table cols tuples
  | Select { projection; table; where = w; order_by; limit } ->
      let proj =
        match projection with
        | Star -> "*"
        | Count_star -> "COUNT(*)"
        | Aggregate (Sum, c) -> Printf.sprintf "SUM(%s)" c
        | Aggregate (Avg, c) -> Printf.sprintf "AVG(%s)" c
        | Aggregate (Min_agg, c) -> Printf.sprintf "MIN(%s)" c
        | Aggregate (Max_agg, c) -> Printf.sprintf "MAX(%s)" c
        | Columns cs -> String.concat ", " cs
      in
      let order =
        match order_by with
        | None -> ""
        | Some (c, Asc) -> Printf.sprintf " ORDER BY %s ASC" c
        | Some (c, Desc) -> Printf.sprintf " ORDER BY %s DESC" c
      in
      let lim =
        match limit with
        | None -> ""
        | Some n -> if erase then " LIMIT ?" else Printf.sprintf " LIMIT %d" n
      in
      Printf.sprintf "SELECT %s FROM %s%s%s%s" proj table (where w) order lim
  | Update { table; sets; where = w } ->
      let set (c, l) = Printf.sprintf "%s = %s" c (literal ~erase l) in
      Printf.sprintf "UPDATE %s SET %s%s" table (String.concat ", " (List.map set sets))
        (where w)
  | Delete { table; where = w } -> Printf.sprintf "DELETE FROM %s%s" table (where w)

let to_string stmt = render ~erase:false stmt

let signature stmt = render ~erase:true stmt
