(** Control-flow graphs of AppLang functions.

    One graph per function (Sec. IV-A). Nodes are code blocks split so
    that each node issues {e at most one} call, which is the granularity
    the probability forecast needs: the transition probability of a call
    pair is the probability mass flowing over call-free paths between
    their nodes.

    For the static phase the graph is a DAG: loop back edges are
    {e redirected} to the loop's exit join ("each node is visited once",
    Sec. IV-C1 — loops are learned dynamically by the HMM). The original
    back edges are recorded separately in [back_edges]. *)

type call_site = {
  callee : string;
  args : Applang.Ast.expr list;
  call_expr : Applang.Ast.expr;  (** the physical [Call] sub-term *)
  is_user : bool;  (** callee is a user-defined function *)
  mutable label : int option;
      (** block id when the taint analysis marks this as a DB-output call *)
}

type event =
  | E_entry
  | E_exit
  | E_call of call_site
  | E_bind of string * Applang.Ast.expr  (** [x = e] after its calls ran *)
  | E_cond of Applang.Ast.expr  (** branch node: 2+ successors *)
  | E_return of Applang.Ast.expr option
  | E_join  (** call-free merge/skip node *)

type node = { id : int; func : string; event : event }

type branch = {
  cond : int;  (** the [E_cond] node *)
  if_true : int;  (** successor taken when the condition holds *)
  if_false : int;  (** successor taken when it does not *)
}
(** Which successor of a two-way branch is which. [if_true] and
    [if_false] may name the same node (both arms empty): the parallel
    edges then carry the roles by multiplicity. *)

type t = {
  func : string;
  params : string list;
  entry : int;
  exit : int;
  nodes : (int, node) Hashtbl.t;
  succs : (int, int list) Hashtbl.t;  (** DAG successors; duplicates = parallel edges *)
  preds : (int, int list) Hashtbl.t;
  mutable back_edges : (int * int) list;  (** original loop back edges *)
  mutable branches : branch list;  (** branch roles, one per [E_cond] node *)
}

val node : t -> int -> node
(** @raise Not_found on an unknown id. *)

val successors : t -> int -> int list
val predecessors : t -> int -> int list
val node_ids : t -> int list
(** All node ids, sorted ascending. *)

val out_degree : t -> int -> int

val call_of_node : t -> int -> call_site option

val call_nodes : t -> (int * call_site) list
(** Nodes bearing calls, in ascending id order. *)

val symbol_of_site : id:int -> call_site -> Symbol.t
(** [Func callee] for user calls, [Lib {name; label; site = Some id}]
    otherwise — CTM symbols are call-site-granular. *)

val topological_order : t -> int list
(** Topological order of the DAG, entry first.
    @raise Invalid_argument if a cycle survived construction. *)

(** Physical-identity map from [Call] expressions to the block id of the
    node issuing them. Shared with the interpreter so that run-time
    events carry the same block ids as the static labels. *)
module Sites : sig
  type sites

  val create : unit -> sites
  val register : sites -> Applang.Ast.expr -> int -> unit
  val block_of : sites -> Applang.Ast.expr -> int option
end
