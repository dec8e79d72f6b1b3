type dialect = Postgres | Mysql

type exec_result =
  | Result of Engine.result
  | Command_ok of int
  | Error of string

type conn = {
  engine : Engine.t;
  dialect : dialect;
  mutable last : exec_result option;
  mutable last_sql : string option;
}

type cursor = { result : Engine.result; mutable next : int }

type prepared = { statement : Sql_ast.statement; nparams : int }

let prepared_statement p = p.statement

let bound_text prepared params =
  Sql_pp.to_string (Sql_ast.bind_params (Array.of_list params) prepared.statement)

let connect engine dialect = { engine; dialect; last = None; last_sql = None }
let dialect conn = conn.dialect
let engine conn = conn.engine

let set_last_result conn r = conn.last <- r
let last_result conn = conn.last
let set_last_sql conn s = conn.last_sql <- s
let last_sql conn = conn.last_sql

let exec conn sql =
  match Engine.exec conn.engine sql with
  | Engine.Rows r -> Result r
  | Engine.Affected n -> Command_ok n
  | exception Engine.Sql_error msg -> Error msg

let prepare _conn sql =
  Result.map
    (fun statement -> { statement; nparams = Sql_ast.param_count statement })
    (Sql_parser.parse sql)

let exec_prepared conn prepared params =
  if List.length params <> prepared.nparams then
    Error
      (Printf.sprintf "expected %d parameters, got %d" prepared.nparams (List.length params))
  else
    match Engine.execute ~params:(Array.of_list params) conn.engine prepared.statement with
    | Engine.Rows r -> Result r
    | Engine.Affected n -> Command_ok n
    | exception Engine.Sql_error msg -> Error msg

let ntuples = function
  | Result r -> Array.length r.Engine.rows
  | Command_ok _ | Error _ -> 0

let nfields = function
  | Result r -> Array.length r.Engine.columns
  | Command_ok _ | Error _ -> 0

let getvalue res row col =
  match res with
  | Result r ->
      if row < 0 || row >= Array.length r.Engine.rows then Value.Null
      else
        let cells = r.Engine.rows.(row) in
        if col < 0 || col >= Array.length cells then Value.Null else cells.(col)
  | Command_ok _ | Error _ -> Value.Null

let cursor_of_result = function
  | Result r -> Some { result = r; next = 0 }
  | Command_ok _ | Error _ -> None

let fetch_row cursor =
  if cursor.next >= Array.length cursor.result.Engine.rows then None
  else begin
    let row = cursor.result.Engine.rows.(cursor.next) in
    cursor.next <- cursor.next + 1;
    Some row
  end

let cursor_num_rows cursor = Array.length cursor.result.Engine.rows
let cursor_num_fields cursor = Array.length cursor.result.Engine.columns
