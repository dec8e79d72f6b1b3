(** Call symbols — the shared vocabulary of the static analysis, the
    trace collector and the HMM observation alphabet.

    A library call that outputs data retrieved from the database is
    labeled with the id of the code block issuing it, e.g.
    [printf_Q6] (Sec. IV-C1 of the paper). The virtual [Entry]/[Exit]
    symbols are the ε/ε′ endpoints of every call-transition matrix.

    The same call name can occur at several program points: statically
    (in CTMs) each occurrence is a distinct symbol carrying its [site]
    (the block id), which is what lets the paper list [printf'] and
    [printf''] as separate rows of Table I. At run time the collector
    only observes the call name (+ label), so observation symbols have
    [site = None]; {!observable} projects a static symbol onto what the
    collector would emit. *)

type t =
  | Entry  (** ε: function entry *)
  | Exit  (** ε′: function exit *)
  | Lib of { name : string; label : int option; site : int option }
      (** library call; [label = Some bid] marks a DB-output call issued
          from block [bid]; [site = Some bid] identifies the static call
          site in CTMs *)
  | Func of string  (** call to a user-defined function (inlined away
          during aggregation) *)

val lib : ?label:int -> string -> t

val observable : t -> t
(** Forget the static site: the symbol as the run-time collector sees
    it (name + DB-output label). *)

val name : t -> string
(** Bare callee name; ["<entry>"] / ["<exit>"] for the virtual ends. *)

val strip_label : t -> t
(** Forget the DB-output label: what the CMarkov baseline sees. *)

val is_labeled : t -> bool

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val to_string : t -> string
(** [printf], [printf_Q6], [f()], [eps], [eps']. *)

val pp : Format.formatter -> t -> unit

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
module Table : Hashtbl.S with type key = t
