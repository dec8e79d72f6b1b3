type table = { columns : string array; mutable trows : Value.t array list (* reversed *) }

type t = { tables : (string, table) Hashtbl.t }

type result = { columns : string array; rows : Value.t array array }

type outcome =
  | Rows of result
  | Affected of int

exception Sql_error of string

let create () = { tables = Hashtbl.create 8 }

let copy t =
  let tables = Hashtbl.copy t.tables in
  Hashtbl.filter_map_inplace
    (fun _ (tbl : table) ->
      Some { columns = Array.copy tbl.columns; trows = List.map Array.copy tbl.trows })
    tables;
  { tables }

let find_table t name =
  match Hashtbl.find_opt t.tables name with
  | Some tbl -> tbl
  | None -> raise (Sql_error (Printf.sprintf "unknown table %s" name))

let column_index (tbl : table) name =
  let rec loop i =
    if i >= Array.length tbl.columns then
      raise (Sql_error (Printf.sprintf "unknown column %s" name))
    else if tbl.columns.(i) = name then i
    else loop (i + 1)
  in
  loop 0

let resolve_literal params lit =
  match lit with
  | Sql_ast.L_int n -> Value.Int n
  | Sql_ast.L_str s -> Value.Str s
  | Sql_ast.L_null -> Value.Null
  | Sql_ast.L_param i ->
      if i >= Array.length params then
        raise (Sql_error (Printf.sprintf "missing parameter $%d" (i + 1)))
      else params.(i)

let like_match ~pattern text =
  let np = String.length pattern and nt = String.length text in
  (* Classic two-pointer glob matcher with backtracking on '%'. *)
  let rec go p t star_p star_t =
    if t >= nt then
      if p >= np then true
      else if pattern.[p] = '%' then go (p + 1) t star_p star_t
      else false
    else if p < np && (pattern.[p] = '_' || pattern.[p] = text.[t]) then
      go (p + 1) (t + 1) star_p star_t
    else if p < np && pattern.[p] = '%' then go (p + 1) t (Some p) t
    else
      match star_p with
      | Some sp -> go (sp + 1) (star_t + 1) star_p (star_t + 1)
      | None -> false
  in
  go 0 0 None 0

(* SQL three-valued logic collapsed to two values: NULL comparisons are
   false, which matches the behaviour the attacks rely on. *)
let rec eval_where (tbl : table) params row expr =
  let operand = function
    | Sql_ast.Col name -> row.(column_index tbl name)
    | Sql_ast.Lit l -> resolve_literal params l
    | Sql_ast.Cmp _ | Sql_ast.And _ | Sql_ast.Or _ | Sql_ast.Not _ | Sql_ast.Like _
    | Sql_ast.In _ ->
        raise (Sql_error "nested boolean expression used as operand")
  in
  match expr with
  | Sql_ast.Cmp (op, a, b) -> (
      match Value.compare_values (operand a) (operand b) with
      | None -> false
      | Some c -> (
          match op with
          | Sql_ast.Ceq -> c = 0
          | Sql_ast.Cne -> c <> 0
          | Sql_ast.Clt -> c < 0
          | Sql_ast.Cle -> c <= 0
          | Sql_ast.Cgt -> c > 0
          | Sql_ast.Cge -> c >= 0))
  | Sql_ast.And (a, b) -> eval_where tbl params row a && eval_where tbl params row b
  | Sql_ast.Or (a, b) -> eval_where tbl params row a || eval_where tbl params row b
  | Sql_ast.Not a -> not (eval_where tbl params row a)
  | Sql_ast.Like (a, b) -> (
      match (operand a, operand b) with
      | Value.Null, _ | _, Value.Null -> false
      | va, vb -> like_match ~pattern:(Value.to_string vb) (Value.to_string va))
  | Sql_ast.In (a, lits) ->
      let v = operand a in
      List.exists
        (fun lit -> Value.compare_values v (resolve_literal params lit) = Some 0)
        lits
  | Sql_ast.Col _ | Sql_ast.Lit _ -> raise (Sql_error "non-boolean WHERE clause")

let matching_rows tbl params where =
  let rows = List.rev tbl.trows in
  match where with
  | None -> rows
  | Some expr -> List.filter (fun row -> eval_where tbl params row expr) rows

let execute ?(params = [||]) t stmt =
  match stmt with
  | Sql_ast.Create { table; columns } ->
      if Hashtbl.mem t.tables table then raise (Sql_error (Printf.sprintf "table %s exists" table));
      if columns = [] then raise (Sql_error "CREATE TABLE with no columns");
      Hashtbl.replace t.tables table { columns = Array.of_list columns; trows = [] };
      Affected 0
  | Sql_ast.Insert { table; columns; values } ->
      let tbl = find_table t table in
      let positions =
        match columns with
        | None -> Array.init (Array.length tbl.columns) (fun i -> i)
        | Some cols -> Array.of_list (List.map (column_index tbl) cols)
      in
      let insert_tuple lits =
        if List.length lits <> Array.length positions then
          raise (Sql_error "INSERT arity mismatch");
        let row = Array.make (Array.length tbl.columns) Value.Null in
        List.iteri (fun i lit -> row.(positions.(i)) <- resolve_literal params lit) lits;
        tbl.trows <- row :: tbl.trows
      in
      List.iter insert_tuple values;
      Affected (List.length values)
  | Sql_ast.Select { projection; table; where; order_by; limit } ->
      let tbl = find_table t table in
      let rows = matching_rows tbl params where in
      let rows =
        match order_by with
        | None -> rows
        | Some (column, dir) ->
            let idx = column_index tbl column in
            let cmp a b =
              let c =
                match Value.compare_values a.(idx) b.(idx) with
                | Some c -> c
                | None -> 0
              in
              match dir with Sql_ast.Asc -> c | Sql_ast.Desc -> -c
            in
            List.stable_sort cmp rows
      in
      let rows =
        match limit with
        | None -> rows
        | Some k -> List.filteri (fun i _ -> i < k) rows
      in
      (match projection with
      | Sql_ast.Count_star ->
          Rows { columns = [| "count" |]; rows = [| [| Value.Int (List.length rows) |] |] }
      | Sql_ast.Aggregate (agg, column) ->
          let idx = column_index tbl column in
          let ints =
            List.filter_map
              (fun row ->
                match row.(idx) with
                | Value.Int n -> Some n
                | Value.Str s -> int_of_string_opt s
                | Value.Null -> None)
              rows
          in
          let result =
            match (agg, ints) with
            | _, [] -> Value.Null
            | Sql_ast.Sum, xs -> Value.Int (List.fold_left ( + ) 0 xs)
            | Sql_ast.Avg, xs ->
                Value.Int (List.fold_left ( + ) 0 xs / List.length xs)
            | Sql_ast.Min_agg, x :: xs -> Value.Int (List.fold_left min x xs)
            | Sql_ast.Max_agg, x :: xs -> Value.Int (List.fold_left max x xs)
          in
          let name =
            match agg with
            | Sql_ast.Sum -> "sum"
            | Sql_ast.Avg -> "avg"
            | Sql_ast.Min_agg -> "min"
            | Sql_ast.Max_agg -> "max"
          in
          Rows { columns = [| name |]; rows = [| [| result |] |] }
      | Sql_ast.Star -> Rows { columns = Array.copy tbl.columns; rows = Array.of_list rows }
      | Sql_ast.Columns cols ->
          let idxs = List.map (column_index tbl) cols in
          let project row = Array.of_list (List.map (fun i -> row.(i)) idxs) in
          Rows { columns = Array.of_list cols; rows = Array.of_list (List.map project rows) })
  | Sql_ast.Update { table; sets; where } ->
      let tbl = find_table t table in
      let sets = List.map (fun (c, l) -> (column_index tbl c, l)) sets in
      let count = ref 0 in
      let update row =
        let hit = match where with None -> true | Some e -> eval_where tbl params row e in
        if hit then begin
          incr count;
          List.iter (fun (i, lit) -> row.(i) <- resolve_literal params lit) sets
        end
      in
      List.iter update tbl.trows;
      Affected !count
  | Sql_ast.Delete { table; where } ->
      let tbl = find_table t table in
      let keep, gone =
        List.partition
          (fun row -> match where with None -> false | Some e -> not (eval_where tbl params row e))
          tbl.trows
      in
      tbl.trows <- keep;
      Affected (List.length gone)

let exec t sql =
  match Sql_parser.parse sql with
  | Ok stmt -> execute t stmt
  | Error msg -> raise (Sql_error msg)
