module Client = Sqldb.Client
module Value = Sqldb.Value

let err fmt = Printf.ksprintf (fun msg -> raise (Istate.Error msg)) fmt

let format_args fmt args =
  let buf = Buffer.create (String.length fmt + 16) in
  let args = ref args in
  let take () =
    match !args with
    | [] -> "" (* missing argument renders as empty, like a lax libc *)
    | a :: rest ->
        args := rest;
        Rvalue.to_display a
  in
  let n = String.length fmt in
  let i = ref 0 in
  while !i < n do
    if fmt.[!i] = '%' && !i + 1 < n then begin
      (match fmt.[!i + 1] with
      | 's' | 'd' | 'f' -> Buffer.add_string buf (take ())
      | '%' -> Buffer.add_char buf '%'
      | c ->
          Buffer.add_char buf '%';
          Buffer.add_char buf c);
      i := !i + 2
    end
    else begin
      Buffer.add_char buf fmt.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let as_int name (v : Rvalue.t) =
  match v.Rvalue.base with
  | Rvalue.VInt n -> n
  | Rvalue.VBool true -> 1
  | Rvalue.VBool false -> 0
  | _ -> err "%s: expected an int, got %s" name (Rvalue.type_name v)

let as_str name (v : Rvalue.t) =
  match v.Rvalue.base with
  | Rvalue.VStr s -> s
  | Rvalue.VInt n -> string_of_int n
  | Rvalue.VNull -> "NULL"
  | _ -> err "%s: expected a string, got %s" name (Rvalue.type_name v)

let as_conn name (v : Rvalue.t) =
  match v.Rvalue.base with
  | Rvalue.VConn c -> c
  | _ -> err "%s: expected a connection, got %s" name (Rvalue.type_name v)

let as_result name (v : Rvalue.t) =
  match v.Rvalue.base with
  | Rvalue.VResult r -> r
  | _ -> err "%s: expected a result, got %s" name (Rvalue.type_name v)

let as_cursor name (v : Rvalue.t) =
  match v.Rvalue.base with
  | Rvalue.VCursor c -> Some c
  | Rvalue.VNull -> None
  | _ -> err "%s: expected a cursor, got %s" name (Rvalue.type_name v)

let as_file name (v : Rvalue.t) =
  match v.Rvalue.base with
  | Rvalue.VFile h -> h
  | _ -> err "%s: expected a file, got %s" name (Rvalue.type_name v)

let as_prepared name (v : Rvalue.t) =
  match v.Rvalue.base with
  | Rvalue.VPrepared p -> p
  | _ -> err "%s: expected a prepared statement, got %s" name (Rvalue.type_name v)

let value_of_rvalue (v : Rvalue.t) =
  match v.Rvalue.base with
  | Rvalue.VInt n -> Value.Int n
  | Rvalue.VStr s -> Value.Str s
  | Rvalue.VNull -> Value.Null
  | Rvalue.VBool true -> Value.Int 1
  | Rvalue.VBool false -> Value.Int 0
  | _ -> err "prepared parameter: unsupported type %s" (Rvalue.type_name v)

let rvalue_of_value taint (v : Value.t) =
  match v with
  | Value.Int n -> Rvalue.int ~taint n
  | Value.Str s -> Rvalue.str ~taint s
  | Value.Null -> Rvalue.retaint taint Rvalue.null

let mk_base base : Rvalue.t = { Rvalue.base; taint = false; tags = [] }

(* Provenance shadow heap: the (table, column) sources a query result
   carries, from the executed statement's projection. SELECT * uses the
   engine's actual result columns when there are any — more precise
   than the static "*" atom, which still covers it. *)
let tags_of_statement stmt (result : Client.exec_result) =
  match stmt with
  | Sqldb.Sql_ast.Select { projection; table; _ } ->
      let cols =
        match projection with
        | Sqldb.Sql_ast.Columns cs -> cs
        | Sqldb.Sql_ast.Star -> (
            match result with
            | Client.Result r when Array.length r.Sqldb.Engine.columns > 0 ->
                Array.to_list r.Sqldb.Engine.columns
            | Client.Result _ | Client.Command_ok _ | Client.Error _ -> [ "*" ])
        | Sqldb.Sql_ast.Count_star -> []
        | Sqldb.Sql_ast.Aggregate (_, c) -> [ c ]
      in
      List.map (fun c -> (table, c)) cols
  | Sqldb.Sql_ast.Create _ | Sqldb.Sql_ast.Insert _ | Sqldb.Sql_ast.Update _
  | Sqldb.Sql_ast.Delete _ ->
      []

let tags_of_sql sql result =
  match Sqldb.Sql_parser.parse sql with
  | Ok stmt -> tags_of_statement stmt result
  | Error _ -> []

(* Files opened for reading see the seed contents plus anything the
   program already wrote to the same path in this run. *)
let open_file (st : Istate.t) path mode_str =
  let mode =
    match mode_str with
    | "r" -> Rvalue.Read
    | "w" -> Rvalue.Write
    | "a" -> Rvalue.Append
    | other -> err "fopen: unsupported mode %S" other
  in
  match mode with
  | Rvalue.Read ->
      let contents =
        match Hashtbl.find_opt st.Istate.written_files path with
        | Some buf -> Buffer.contents buf
        | None -> (
            match Hashtbl.find_opt st.Istate.file_seeds path with
            | Some s -> s
            | None -> "")
      in
      let read_lines = if contents = "" then [] else String.split_on_char '\n' contents in
      mk_base (Rvalue.VFile { Rvalue.path; mode; read_lines; buffer = Buffer.create 0 })
  | Rvalue.Write | Rvalue.Append ->
      let buffer =
        match Hashtbl.find_opt st.Istate.written_files path with
        | Some buf when mode = Rvalue.Append -> buf
        | Some buf ->
            Buffer.clear buf;
            buf
        | None ->
            let buf = Buffer.create 64 in
            Hashtbl.replace st.Istate.written_files path buf;
            buf
      in
      mk_base (Rvalue.VFile { Rvalue.path; mode; read_lines = []; buffer })

let write_out buffer s =
  Buffer.add_string buffer s;
  Rvalue.int (String.length s)

let record_query (st : Istate.t) sql =
  Istate.push_query st sql;
  sql

let rows_of_result = function
  | Client.Result r -> Array.length r.Sqldb.Engine.rows
  | Client.Command_ok n -> n
  | Client.Error _ -> 0

(* The query log pairs executed SQL (parameters bound in) with its
   result cardinality — the view a server-side audit log would have,
   which is what the query-signature axis scores. *)
let log_query (st : Istate.t) sql result =
  Istate.push_query_log st sql (rows_of_result result);
  result

(* File-level data-flow tracking (the Sec. VII mitigation): when an
   output call stores targeted data into a file, remember the path so
   later actions on that file can be audited. *)
let mark_if_tainted (st : Istate.t) (h : Rvalue.file_handle) args =
  if List.exists (fun (v : Rvalue.t) -> v.Rvalue.taint) args then
    if not (List.mem h.Rvalue.path st.Istate.tainted_paths) then
      st.Istate.tainted_paths <- h.Rvalue.path :: st.Istate.tainted_paths

let dispatch (st : Istate.t) name (args : Rvalue.t list) : Rvalue.t =
  match (name, args) with
  (* database: connections *)
  | "db_connect", [ d ] ->
      let dialect =
        let s = String.lowercase_ascii (as_str name d) in
        if s = "mysql" || s = "my" then Client.Mysql else Client.Postgres
      in
      mk_base (Rvalue.VConn (Client.connect st.Istate.engine dialect))
  (* PostgreSQL style *)
  | "pq_exec", [ conn; sql ] ->
      let wire = st.Istate.query_rewriter (as_str name sql) in
      let r = log_query st wire (Client.exec (as_conn name conn) (record_query st wire)) in
      Rvalue.retag (tags_of_sql wire r) (mk_base (Rvalue.VResult r))
  | "pq_prepare", [ conn; sql ] -> (
      match Client.prepare (as_conn name conn) (record_query st (as_str name sql)) with
      | Ok p -> mk_base (Rvalue.VPrepared p)
      | Error _ -> Rvalue.null)
  | "pq_exec_prepared", conn :: prep :: params ->
      let conn = as_conn name conn and prep = as_prepared name prep in
      let values = List.map value_of_rvalue params in
      let r = log_query st (Client.bound_text prep values) (Client.exec_prepared conn prep values) in
      Rvalue.retag
        (tags_of_statement (Client.prepared_statement prep) r)
        (mk_base (Rvalue.VResult r))
  | "pq_ntuples", [ res ] -> Rvalue.int (Client.ntuples (as_result name res))
  | "pq_nfields", [ res ] -> Rvalue.int (Client.nfields (as_result name res))
  | "pq_getvalue", [ res; row; col ] ->
      Rvalue.retag res.Rvalue.tags
        (rvalue_of_value false
           (Client.getvalue (as_result name res) (as_int name row) (as_int name col)))
  | "pq_result_status", [ res ] -> (
      match as_result name res with
      | Client.Error _ -> Rvalue.int 1
      | Client.Result _ | Client.Command_ok _ -> Rvalue.int 0)
  (* MySQL style *)
  | "mysql_query", [ conn; sql ] ->
      let c = as_conn name conn in
      let wire = st.Istate.query_rewriter (as_str name sql) in
      let r = log_query st wire (Client.exec c (record_query st wire)) in
      Client.set_last_result c (Some r);
      Client.set_last_sql c (Some wire);
      Rvalue.int (match r with Client.Error _ -> 1 | Client.Result _ | Client.Command_ok _ -> 0)
  | "mysql_store_result", [ conn ] -> (
      let c = as_conn name conn in
      match Client.last_result c with
      | Some r -> (
          Client.set_last_result c None;
          let tags =
            match Client.last_sql c with
            | Some sql -> tags_of_sql sql r
            | None -> []
          in
          match Client.cursor_of_result r with
          | Some cur -> Rvalue.retag tags (mk_base (Rvalue.VCursor cur))
          | None -> Rvalue.null)
      | None -> Rvalue.null)
  | "mysql_fetch_row", [ cur ] -> (
      match as_cursor name cur with
      | None -> Rvalue.null
      | Some cursor -> (
          match Client.fetch_row cursor with
          | Some row -> Rvalue.retag cur.Rvalue.tags (mk_base (Rvalue.VRow row))
          | None -> Rvalue.null))
  | "mysql_num_rows", [ cur ] -> (
      match as_cursor name cur with
      | None -> Rvalue.int 0
      | Some cursor -> Rvalue.int (Client.cursor_num_rows cursor))
  | "mysql_num_fields", [ cur ] -> (
      match as_cursor name cur with
      | None -> Rvalue.int 0
      | Some cursor -> Rvalue.int (Client.cursor_num_fields cursor))
  | "mysql_prepare", [ conn; sql ] -> (
      match Client.prepare (as_conn name conn) (record_query st (as_str name sql)) with
      | Ok p -> mk_base (Rvalue.VPrepared p)
      | Error _ -> Rvalue.null)
  | "mysql_stmt_execute", conn :: prep :: params -> (
      let conn = as_conn name conn and prep = as_prepared name prep in
      let values = List.map value_of_rvalue params in
      let r = log_query st (Client.bound_text prep values) (Client.exec_prepared conn prep values) in
      match Client.cursor_of_result r with
      | Some cur ->
          Rvalue.retag
            (tags_of_statement (Client.prepared_statement prep) r)
            (mk_base (Rvalue.VCursor cur))
      | None -> Rvalue.null)
  (* output statements *)
  | "printf", fmt :: rest -> write_out st.Istate.stdout (format_args (as_str name fmt) rest)
  | "puts", [ s ] -> write_out st.Istate.stdout (as_str name s ^ "\n")
  | "fprintf", file :: fmt :: rest ->
      let h = as_file name file in
      mark_if_tainted st h rest;
      write_out h.Rvalue.buffer (format_args (as_str name fmt) rest)
  | "fputs", [ s; file ] ->
      let h = as_file name file in
      mark_if_tainted st h [ s ];
      write_out h.Rvalue.buffer (as_str name s)
  | "fputc", [ c; file ] ->
      let s =
        match c.Rvalue.base with
        | Rvalue.VInt n when n >= 0 && n < 256 -> String.make 1 (Char.chr n)
        | _ -> as_str name c
      in
      write_out (as_file name file).Rvalue.buffer s
  | "fwrite", [ s; file ] ->
      let h = as_file name file in
      mark_if_tainted st h [ s ];
      write_out h.Rvalue.buffer (as_str name s)
  | "write", [ file; s ] ->
      let h = as_file name file in
      mark_if_tainted st h [ s ];
      write_out h.Rvalue.buffer (as_str name s)
  | "sprintf", fmt :: rest -> Rvalue.str (format_args (as_str name fmt) rest)
  | "snprintf", n :: fmt :: rest ->
      let s = format_args (as_str name fmt) rest in
      let limit = max 0 (as_int name n) in
      Rvalue.str (if String.length s <= limit then s else String.sub s 0 limit)
  | "system", [ cmd ] ->
      st.Istate.system_calls <- as_str name cmd :: st.Istate.system_calls;
      Rvalue.int 0
  (* input *)
  | "scanf", [] | "getline", [] -> Rvalue.str (Istate.next_input st)
  | "scanf_int", [] -> (
      match int_of_string_opt (String.trim (Istate.next_input st)) with
      | Some n -> Rvalue.int n
      | None -> Rvalue.int 0)
  | "fgets", [ file ] -> (
      let h = as_file name file in
      match h.Rvalue.read_lines with
      | [] -> Rvalue.str ""
      | line :: rest ->
          h.Rvalue.read_lines <- rest;
          Rvalue.str line)
  | "feof", [ file ] -> Rvalue.bool ((as_file name file).Rvalue.read_lines = [])
  (* files *)
  | "fopen", [ path; mode ] -> open_file st (as_str name path) (as_str name mode)
  | "fclose", [ _ ] -> Rvalue.int 0
  (* strings and misc *)
  | "strcpy", [ s ] -> Rvalue.str (as_str name s)
  | "strcat", [ a; b ] -> Rvalue.str (as_str name a ^ as_str name b)
  | "substr", [ s; start; len ] ->
      let s = as_str name s in
      let start = max 0 (as_int name start) in
      let len = max 0 (as_int name len) in
      let start = min start (String.length s) in
      let len = min len (String.length s - start) in
      Rvalue.str (String.sub s start len)
  | "to_string", [ v ] -> Rvalue.str (Rvalue.to_display v)
  | "atoi", [ s ] -> (
      match int_of_string_opt (String.trim (as_str name s)) with
      | Some n -> Rvalue.int n
      | None -> Rvalue.int 0)
  | "strlen", [ s ] -> Rvalue.int (String.length (as_str name s))
  | "strcmp", [ a; b ] -> Rvalue.int (compare (as_str name a) (as_str name b))
  | "str_contains", [ s; sub ] ->
      let s = as_str name s and sub = as_str name sub in
      let ns = String.length s and nsub = String.length sub in
      let rec probe i = i + nsub <= ns && (String.sub s i nsub = sub || probe (i + 1)) in
      Rvalue.bool (nsub = 0 || probe 0)
  | "rand_int", [ n ] -> Rvalue.int (Mlkit.Rng.int st.Istate.rng (max 1 (as_int name n)))
  (* web applications: request loop + response sinks *)
  | "http_next_request", [] -> (
      match st.Istate.pending_requests with
      | [] ->
          st.Istate.current_request <- None;
          Rvalue.bool false
      | r :: rest ->
          st.Istate.pending_requests <- rest;
          st.Istate.current_request <- Some r;
          Rvalue.bool true)
  | "http_method", [] -> (
      match st.Istate.current_request with
      | Some r -> Rvalue.str r.Testcase.meth
      | None -> Rvalue.str "")
  | "http_path", [] -> (
      match st.Istate.current_request with
      | Some r -> Rvalue.str r.Testcase.path
      | None -> Rvalue.str "")
  | "http_param", [ key ] -> (
      let key = as_str name key in
      match st.Istate.current_request with
      | Some r -> (
          match List.assoc_opt key r.Testcase.params with
          | Some v -> Rvalue.str v
          | None -> Rvalue.str "")
      | None -> Rvalue.str "")
  | "http_respond", [ status; body ] ->
      Buffer.add_string st.Istate.responses
        (Printf.sprintf "HTTP %d
%s
" (as_int name status) (as_str name body));
      Rvalue.int 0
  | "http_write", [ chunk ] ->
      Buffer.add_string st.Istate.responses (as_str name chunk);
      Rvalue.int 0
  | "exit", _ -> raise Istate.Program_exit
  | _ ->
      if Applang.Libspec.is_builtin name then
        if String.length name > 4 && String.sub name 0 4 = "lib_" then Rvalue.int 0
        else err "builtin %s: bad arity (%d args)" name (List.length args)
      else err "unknown function %s" name
