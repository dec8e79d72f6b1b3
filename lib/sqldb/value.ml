type t =
  | Int of int
  | Str of string
  | Null

let to_string = function
  | Int n -> string_of_int n
  | Str s -> s
  | Null -> "NULL"

let compare_values a b =
  match (a, b) with
  | Null, _ | _, Null -> None
  | Int x, Int y -> Some (compare x y)
  | Str x, Str y -> Some (compare x y)
  | Int x, Str y -> Some (compare (string_of_int x) y)
  | Str x, Int y -> Some (compare x (string_of_int y))

let equal a b =
  match (a, b) with
  | Null, Null -> true
  | Int x, Int y -> x = y
  | Str x, Str y -> x = y
  | _ -> false
