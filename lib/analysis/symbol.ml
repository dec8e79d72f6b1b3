type t =
  | Entry
  | Exit
  | Lib of { name : string; label : int option; site : int option }
  | Func of string

let lib ?label name = Lib { name; label; site = None }

let observable = function
  | Lib { name; label; site = Some _ } -> Lib { name; label; site = None }
  | (Entry | Exit | Lib _ | Func _) as s -> s

let name = function
  | Entry -> "<entry>"
  | Exit -> "<exit>"
  | Lib { name; _ } -> name
  | Func f -> f

let strip_label = function
  | Lib { name; label = Some _; site } -> Lib { name; label = None; site }
  | (Entry | Exit | Lib _ | Func _) as s -> s

let is_labeled = function
  | Lib { label = Some _; _ } -> true
  | Entry | Exit | Lib _ | Func _ -> false

let compare = Stdlib.compare
let equal a b = compare a b = 0
let hash = Hashtbl.hash

let to_string = function
  | Entry -> "eps"
  | Exit -> "eps'"
  | Lib { name; label; site } ->
      let base = match label with None -> name | Some bid -> Printf.sprintf "%s_Q%d" name bid in
      (match site with None -> base | Some s -> Printf.sprintf "%s#%d" base s)
  | Func f -> f ^ "()"

let pp ppf s = Format.pp_print_string ppf (to_string s)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
