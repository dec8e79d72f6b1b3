module Pair = struct
  type t = Symbol.t * Symbol.t

  let equal (a1, b1) (a2, b2) = Symbol.equal a1 a2 && Symbol.equal b1 b2
  let hash (a, b) = (Symbol.hash a * 31) + Symbol.hash b
end

module Pairs = Hashtbl.Make (Pair)

type t = { cells : float Pairs.t }

let create () = { cells = Pairs.create 64 }

let copy t = { cells = Pairs.copy t.cells }

let get t a b = match Pairs.find_opt t.cells (a, b) with Some v -> v | None -> 0.0

let set t a b v = if v = 0.0 then Pairs.remove t.cells (a, b) else Pairs.replace t.cells (a, b) v

let add t a b v = set t a b (get t a b +. v)

let remove_symbol t s =
  let doomed = Pairs.fold (fun (a, b) _ acc -> if Symbol.equal a s || Symbol.equal b s then (a, b) :: acc else acc) t.cells [] in
  List.iter (Pairs.remove t.cells) doomed

let symbols t =
  let set =
    Pairs.fold
      (fun (a, b) _ acc -> Symbol.Set.add a (Symbol.Set.add b acc))
      t.cells Symbol.Set.empty
  in
  Symbol.Set.elements set

let calls t =
  List.filter (function Symbol.Entry | Symbol.Exit -> false | Symbol.Lib _ | Symbol.Func _ -> true) (symbols t)

let row t s =
  Pairs.fold (fun (a, b) v acc -> if Symbol.equal a s then (b, v) :: acc else acc) t.cells []
  |> List.sort (fun (x, _) (y, _) -> Symbol.compare x y)

let column t s =
  Pairs.fold (fun (a, b) v acc -> if Symbol.equal b s then (a, v) :: acc else acc) t.cells []
  |> List.sort (fun (x, _) (y, _) -> Symbol.compare x y)

let row_sum t s = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 (row t s)
let column_sum t s = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 (column t s)

let iter f t = Pairs.iter (fun (a, b) v -> f a b v) t.cells

let eliminate_symbol t s =
  let inflow = column t s and outflow = row t s in
  let total_in = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 inflow in
  remove_symbol t s;
  if total_in > 0.0 then
    List.iter
      (fun (a, va) ->
        List.iter
          (fun (b, vb) ->
            if not (Symbol.equal a s || Symbol.equal b s) then
              add t a b (va *. vb /. total_in))
          outflow)
      inflow

let conserved t =
  let close x y = Float.abs (x -. y) <= 1e-9 in
  close (row_sum t Symbol.Entry) 1.0
  && close (column_sum t Symbol.Exit) 1.0
  && List.for_all (fun c -> close (row_sum t c) (column_sum t c)) (calls t)

let map_symbols f t =
  let out = create () in
  iter (fun a b v -> add out (f a) (f b) v) t;
  out

let pp ppf t =
  let syms = symbols t in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun a ->
      let r = row t a in
      if r <> [] then begin
        Format.fprintf ppf "%a ->" Symbol.pp a;
        List.iter (fun (b, v) -> Format.fprintf ppf " %a:%.4f" Symbol.pp b v) r;
        Format.fprintf ppf "@,"
      end)
    syms;
  Format.fprintf ppf "@]"
