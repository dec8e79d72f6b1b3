type taint_kind =
  | Source
  | Propagate
  | Clean

type spec = { name : string; taint : taint_kind; is_sink : bool }

let mk name taint is_sink = { name; taint; is_sink }

let all =
  [
    (* database: PostgreSQL-style *)
    mk "db_connect" Clean false;
    mk "pq_exec" Source false;
    mk "pq_prepare" Clean false;
    mk "pq_exec_prepared" Source false;
    mk "pq_ntuples" Clean false;
    mk "pq_nfields" Clean false;
    mk "pq_getvalue" Propagate false;
    mk "pq_result_status" Clean false;
    (* database: MySQL-style *)
    mk "mysql_query" Clean false;
    mk "mysql_store_result" Source false;
    mk "mysql_fetch_row" Propagate false;
    mk "mysql_num_rows" Clean false;
    mk "mysql_num_fields" Clean false;
    mk "mysql_prepare" Clean false;
    mk "mysql_stmt_execute" Source false;
    (* terminal / file output: the paper's output statements *)
    mk "printf" Clean true;
    mk "fprintf" Clean true;
    mk "sprintf" Propagate true;
    mk "snprintf" Propagate true;
    mk "puts" Clean true;
    mk "fputs" Clean true;
    mk "fputc" Clean true;
    mk "fwrite" Clean true;
    mk "write" Clean true;
    mk "system" Clean true;
    (* input *)
    mk "scanf" Clean false;
    mk "scanf_int" Clean false;
    mk "getline" Clean false;
    mk "fgets" Clean false;
    mk "feof" Clean false;
    (* files *)
    mk "fopen" Clean false;
    mk "fclose" Clean false;
    (* strings and misc *)
    mk "strcpy" Propagate false;
    mk "strcat" Propagate false;
    mk "substr" Propagate false;
    mk "to_string" Propagate false;
    mk "atoi" Propagate false;
    mk "strlen" Clean false;
    mk "strcmp" Clean false;
    mk "str_contains" Clean false;
    mk "rand_int" Clean false;
    mk "exit" Clean false;
    (* web applications (the paper's future work) *)
    mk "http_next_request" Clean false;
    mk "http_method" Clean false;
    mk "http_path" Clean false;
    mk "http_param" Clean false;
    mk "http_respond" Clean true;
    mk "http_write" Clean true;
  ]

let table =
  let tbl = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace tbl s.name s) all;
  tbl

let synthetic name = String.length name > 4 && String.sub name 0 4 = "lib_"

let find name =
  match Hashtbl.find_opt table name with
  | Some s -> Some s
  | None -> if synthetic name then Some (mk name Clean false) else None

let is_sink name = match find name with Some s -> s.is_sink | None -> false
let taint_of name = match find name with Some s -> s.taint | None -> Clean
let is_builtin name = find name <> None

(* The second taint polarity: attacker-controlled input rather than
   DB-retrieved data. Integer-valued builtins ([atoi], [scanf_int],
   [strlen], ...) sanitize — a value rendered as digits cannot alter SQL
   structure — so they are deliberately absent from the propagate set. *)
let untrusted_sources = [ "scanf"; "getline"; "fgets"; "http_method"; "http_path"; "http_param" ]

let untrusted_propagators =
  [ "strcpy"; "strcat"; "substr"; "to_string"; "sprintf"; "snprintf" ]

let untrusted_taint_of name =
  if List.mem name untrusted_sources then Source
  else if List.mem name untrusted_propagators then Propagate
  else Clean

(* Declared database schema: programs under analysis create their
   tables from the host harness, not in AppLang, so the leakage pass
   learns column lists and key columns from declarations instead. *)
module Schema = struct
  type t = {
    tables : (string, string list) Hashtbl.t;
    keys : (string, unit) Hashtbl.t; (* "table.column" *)
  }

  let empty () = { tables = Hashtbl.create 8; keys = Hashtbl.create 8 }

  let declare t ~table columns = Hashtbl.replace t.tables table columns

  let declare_key t ~table ~column =
    Hashtbl.replace t.keys (table ^ "." ^ column) ()

  let columns t table = Hashtbl.find_opt t.tables table
  let is_key t ~table ~column = Hashtbl.mem t.keys (table ^ "." ^ column)
  let tables t = Hashtbl.fold (fun k _ acc -> k :: acc) t.tables []
end

(* Column-sensitivity policy: which table.column values an output sink
   may never carry (secret), may carry in bounded quantity (internal),
   or freely (public — the default for unmentioned columns). Parsed
   from a small line-based file; see DESIGN.md §13 for the grammar. *)
module Sensitivity = struct
  type level = Public | Internal | Secret

  let level_to_string = function
    | Public -> "public"
    | Internal -> "internal"
    | Secret -> "secret"

  let level_of_string = function
    | "public" -> Some Public
    | "internal" -> Some Internal
    | "secret" -> Some Secret
    | _ -> None

  let level_rank = function Public -> 0 | Internal -> 1 | Secret -> 2
  let level_max a b = if level_rank a >= level_rank b then a else b

  type t = {
    schema : Schema.t;
    mutable rules : (level * string * string) list; (* level, table, column; "*" wildcards *)
  }

  let create () = { schema = Schema.empty (); rules = [] }

  let schema t = t.schema

  let add_rule t level ~table ~column =
    t.rules <- t.rules @ [ (level, table, column) ]

  (* Max over matching rules: overlapping rules ("secret customers.ssn"
     plus "internal customers.*") resolve to the stricter level. An
     unexpanded "*" column conservatively takes the strictest level any
     rule assigns within the table. *)
  let level t ~table ~column =
    List.fold_left
      (fun acc (lvl, tp, cp) ->
        let table_hit = tp = "*" || tp = table in
        let column_hit = cp = "*" || cp = column || column = "*" in
        if table_hit && column_hit then level_max acc lvl else acc)
      Public t.rules

  (* One declaration per line:
       table NAME(col, col, ...)
       key TABLE.COLUMN
       secret|internal|public TABLE.COLUMN   ("*" wildcards allowed)
     '#' starts a comment; blank lines are skipped. *)
  let parse text =
    let t = create () in
    let err lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
    let split_dot s =
      match String.index_opt s '.' with
      | Some i ->
          Some
            ( String.sub s 0 i,
              String.sub s (i + 1) (String.length s - i - 1) )
      | None -> None
    in
    let parse_line lineno line =
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      let line = String.trim line in
      if line = "" then Ok ()
      else
        match String.index_opt line ' ' with
        | None -> err lineno (Printf.sprintf "cannot parse %S" line)
        | Some i -> (
            let kw = String.sub line 0 i in
            let rest =
              String.trim (String.sub line (i + 1) (String.length line - i - 1))
            in
            match kw with
            | "table" -> (
                match String.index_opt rest '(' with
                | Some j when rest.[String.length rest - 1] = ')' ->
                    let name = String.trim (String.sub rest 0 j) in
                    let cols =
                      String.sub rest (j + 1) (String.length rest - j - 2)
                      |> String.split_on_char ','
                      |> List.map String.trim
                      |> List.filter (fun c -> c <> "")
                    in
                    if name = "" then err lineno "empty table name"
                    else begin
                      Schema.declare t.schema ~table:name cols;
                      Ok ()
                    end
                | _ -> err lineno "expected: table NAME(col, ...)")
            | "key" -> (
                match split_dot rest with
                | Some (table, column) ->
                    Schema.declare_key t.schema ~table ~column;
                    Ok ()
                | None -> err lineno "expected: key TABLE.COLUMN")
            | kw -> (
                match level_of_string kw with
                | None -> err lineno (Printf.sprintf "unknown keyword %S" kw)
                | Some lvl -> (
                    match split_dot rest with
                    | Some (table, column) ->
                        add_rule t lvl ~table ~column;
                        Ok ()
                    | None ->
                        err lineno
                          (Printf.sprintf "expected: %s TABLE.COLUMN" kw))))
    in
    let lines = String.split_on_char '\n' text in
    let rec go lineno = function
      | [] -> Ok t
      | line :: rest -> (
          match parse_line lineno line with
          | Ok () -> go (lineno + 1) rest
          | Error _ as e -> e)
    in
    go 1 lines

  let load path =
    match open_in_bin path with
    | exception Sys_error msg -> Error msg
    | ic ->
        let n = in_channel_length ic in
        let text = really_input_string ic n in
        close_in ic;
        parse text
end
