(** Client-side API over the engine, mirroring the libpq and MySQL C
    client libraries used by the paper's subject applications.

    The interpreter's builtins ([pq_exec], [mysql_query],
    [mysql_fetch_row], ...) are thin wrappers over this module; the
    result/cursor model matches the C APIs closely enough that the call
    sequences of Figs. 1, 2 and 9 arise naturally. *)

type dialect = Postgres | Mysql

type conn

type exec_result =
  | Result of Engine.result  (** rows of a SELECT *)
  | Command_ok of int  (** affected-row count *)
  | Error of string  (** parse or semantic failure, as a message *)

type cursor
(** Iterator over a result set ([mysql_store_result] /
    [mysql_fetch_row] style). *)

type prepared

val connect : Engine.t -> dialect -> conn

val set_last_result : conn -> exec_result option -> unit
(** MySQL-style connections remember the outcome of the last
    [mysql_query] until [mysql_store_result] claims it. *)

val last_result : conn -> exec_result option

val set_last_sql : conn -> string option -> unit
(** The SQL text that produced {!last_result}, kept alongside it so
    [mysql_store_result] can recover the statement's projection for
    provenance tagging. *)

val last_sql : conn -> string option

val exec : conn -> string -> exec_result
(** Execute raw SQL text — the injectable path. Never raises; failures
    come back as [Error]. *)

val prepare : conn -> string -> (prepared, string) Stdlib.result
val exec_prepared : conn -> prepared -> Value.t list -> exec_result

val prepared_statement : prepared -> Sql_ast.statement

val bound_text : prepared -> Value.t list -> string
(** Canonical SQL text of the prepared statement with the given
    parameters substituted for their placeholders — what a server-side
    query log would show for this execution. *)

val ntuples : exec_result -> int
(** [PQntuples]: row count; 0 for non-result outcomes. *)

val nfields : exec_result -> int

val getvalue : exec_result -> int -> int -> Value.t
(** [PQgetvalue res row col]; [Value.Null] when out of range or not a
    result set (libpq returns an empty string; Null keeps taint
    tracking honest). *)

val cursor_of_result : exec_result -> cursor option
(** [mysql_store_result]: [None] when the outcome carried no rows. *)

val fetch_row : cursor -> Value.t array option
(** [mysql_fetch_row]: next row or [None] when exhausted. *)

val cursor_num_rows : cursor -> int
val cursor_num_fields : cursor -> int
