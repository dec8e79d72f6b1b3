(** Test cases: the scripted inputs under which a subject program runs.

    A test case supplies the stdin lines consumed by [scanf]/[getline],
    the initial contents of the in-memory file system, and a seed for
    the program-visible RNG — everything needed to replay a run
    deterministically when deriving training traces (Sec. V-B). *)

type request = {
  meth : string;  (** "GET", "POST", ... *)
  path : string;
  params : (string * string) list;  (** query/form parameters *)
}
(** One HTTP request of a web-application test case (the paper's future
    work, Sec. VIII: applications other than desktop ones). *)

type t = {
  name : string;
  input : string list;  (** stdin lines, consumed in order *)
  files : (string * string) list;  (** path -> initial contents *)
  requests : request list;  (** HTTP requests served by a web app *)
  seed : int;
}

val make :
  ?input:string list ->
  ?files:(string * string) list ->
  ?requests:request list ->
  ?seed:int ->
  string ->
  t

val get : ?params:(string * string) list -> string -> request
(** [get path] is a GET request. *)

val post : params:(string * string) list -> string -> request
