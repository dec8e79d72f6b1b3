(** Call graph over user-defined functions, with the strongly-connected
    component condensation needed to order CTM aggregation leaf-first
    and to approximate recursion (Sec. IV-C3). *)

type t

val build : (string * Cfg.t) list -> t
(** Edges come from [E_call] nodes whose callee is user-defined. *)

val functions : t -> string list
val callees : t -> string -> string list
(** Distinct user functions called by a function (empty if unknown). *)

val callers : t -> string -> string list

val reachable : (string * Cfg.t) list -> entry:string -> Set.Make(String).t
(** The functions reachable from [entry] through user calls, [entry]
    included; every function when [entry] is not among them. *)

val sccs : t -> string list list
(** Strongly connected components in reverse topological order of the
    condensation: every component is listed before any of its
    callers, so processing in list order is leaf-first. *)

val recursive_partners : t -> string -> string list
(** Members of the function's SCC other than itself, plus itself when
    directly recursive: the calls that must be eliminated (approximated
    by one unrolling) before aggregation. *)
