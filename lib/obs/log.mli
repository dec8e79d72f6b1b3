(** Structured, severity-leveled event log.

    One global sink (null, stderr, or a file) receives events as JSONL
    — one [{"ts":..,"level":..,"scope":..,"msg":..,...fields}] object
    per line — and any event can additionally be retained in a caller
    provided bounded {!Ring} (the daemon keeps one per shard, so
    shutdown and error paths can print the last N events of the shard
    that mattered). Events below the threshold level cost one branch
    and nothing else.

    [emit] is safe from multiple domains with respect to the global
    sink (writes are serialized under a mutex); a ring, as documented
    in {!Ring}, belongs to its single writer. *)

type level =
  | Debug
  | Info
  | Warn
  | Error

type value =
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

type event = {
  time : float;  (** wall clock, [Unix.gettimeofday] *)
  level : level;
  scope : string;  (** dotted component name, e.g. ["daemon.shard0"] *)
  message : string;
  fields : (string * value) list;
}

val event_to_json : event -> string
(** One JSONL line (no trailing newline). *)

val event_to_string : event -> string
(** Human-oriented one-liner: [LEVEL scope: message key=value ...]. *)

type sink =
  | Null
  | Stderr
  | Channel of out_channel

val set_sink : sink -> unit
(** Default [Null]. Setting a new sink never closes the old channel
    (the opener owns it). *)

val to_file : ?max_bytes:int -> string -> unit
(** Open [path] for append and make it the sink. With [max_bytes] the
    sink rotates: when the next line would push the file past the
    budget, the file is renamed to [path ^ ".1"] (replacing any
    previous generation) and a fresh [path] is started — so on-disk
    use stays bounded by roughly twice [max_bytes] and recent history
    survives the rollover. Rotation happens under the sink mutex, so
    concurrent emitters never interleave across generations.
    @raise Invalid_argument when [max_bytes <= 0]. *)

val set_threshold : level -> unit
(** Drop events below this level (default [Info]). *)

val threshold : unit -> level

val enabled : level -> bool

val emit :
  ?ring:event Ring.t ->
  ?fields:(string * value) list ->
  level ->
  scope:string ->
  string ->
  unit
(** Record one event: below-threshold levels are dropped before any
    allocation; otherwise the event lands in [ring] (if given) and on
    the global sink. *)
