(** Specification of AppLang's library calls.

    This is the single source of truth shared by the static analyzer
    (data-dependency labeling), the interpreter (dynamic taint) and the
    dataset generators: which builtins {e source} targeted data from the
    database, which merely {e propagate} taint, and which are {e output
    statements} (sinks) in the sense of Sec. IV-A of the paper. *)

type taint_kind =
  | Source  (** returns data retrieved from the DB ([pq_exec], ...) *)
  | Propagate  (** returns tainted data iff an argument is tainted *)
  | Clean  (** returns untainted data *)

type spec = { name : string; taint : taint_kind; is_sink : bool }

val is_sink : string -> bool
(** Output statements: [printf], [fprintf], [sprintf], [snprintf],
    [fputs], [fputc], [fwrite], [write], [puts], [system]. *)

val taint_of : string -> taint_kind
(** [Clean] for unknown names. *)

val is_builtin : string -> bool
(** Known builtin, including the synthetic [lib_*] no-ops used by the
    SIR-scale program generator. *)

val untrusted_taint_of : string -> taint_kind
(** The injection polarity: which builtins return {e attacker-controlled}
    input ([scanf], [getline], [fgets], [http_method], [http_path],
    [http_param]) and which string builtins propagate it. Integer-valued
    builtins ([atoi], [scanf_int], [strlen], ...) sanitize: a value
    rendered as digits cannot change SQL structure. This is the dual of
    {!taint_of}, which tracks DB-retrieved data flowing {e out} of the
    program; here we track untrusted data flowing {e into} SQL text. *)

(** Declared database schema for the leakage analysis: the subject
    programs create their tables from the host harness, not in AppLang,
    so column lists and key columns arrive as declarations in a
    {!Sensitivity} policy file. *)
module Schema : sig
  type t

  val empty : unit -> t

  val columns : t -> string -> string list option
  (** Column list of a declared table, for [*]-expansion. *)

  val is_key : t -> table:string -> column:string -> bool
  val tables : t -> string list
end

(** Column-sensitivity policy: which [table.column] values an output
    sink may never carry ([Secret]), may carry in bounded quantity
    ([Internal]), or freely ([Public] — the default for unmentioned
    columns). *)
module Sensitivity : sig
  type level = Public | Internal | Secret

  val level_to_string : level -> string
  val level_of_string : string -> level option
  val level_max : level -> level -> level

  type t

  val schema : t -> Schema.t

  val level : t -> table:string -> column:string -> level
  (** [Public] when no rule matches. An unexpanded ["*"] column takes
      the strictest level any rule assigns within the table. *)

  val parse : string -> (t, string) result
  (** Parse a policy file: one declaration per line, [#] comments.
      [key] marks a unique-valued column (an equality predicate on it
      bounds a SELECT to at most one row); ["*"] is a wildcard in
      either position of a level rule, and overlapping rules resolve to
      the strictest matching level.
      {v
        table customers(id, name, ssn)
        key customers.id
        secret customers.ssn
        internal customers.*
      v} *)

  val load : string -> (t, string) result
  (** [parse] on a file's contents. *)
end
