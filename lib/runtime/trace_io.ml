module Symbol = Analysis.Symbol

let encode_symbol = function
  | Symbol.Entry -> "entry"
  | Symbol.Exit -> "exit"
  | Symbol.Func f -> "func:" ^ f
  | Symbol.Lib { name; label; site } ->
      let opt = function None -> "-" | Some i -> string_of_int i in
      Printf.sprintf "lib:%s:%s:%s" name (opt label) (opt site)

let decode_symbol s =
  match String.split_on_char ':' s with
  | [ "entry" ] -> Ok Symbol.Entry
  | [ "exit" ] -> Ok Symbol.Exit
  | [ "func"; f ] -> Ok (Symbol.Func f)
  | [ "lib"; name; label; site ] -> (
      let opt = function
        | "-" -> Ok None
        | v -> (
            match int_of_string_opt v with
            | Some i -> Ok (Some i)
            | None -> Error ("bad int: " ^ v))
      in
      match (opt label, opt site) with
      | Ok label, Ok site -> Ok (Symbol.Lib { name; label; site })
      | Error e, _ | _, Error e -> Error e)
  | _ -> Error ("bad symbol: " ^ s)

(* A cache key that reads no string bytes: within one program the block
   id nearly determines the event, and the string lengths and the label
   part the rest. Equal events get equal keys, which is all the cache
   needs. *)
let cache_key (e : Collector.event) =
  let opt = function None -> 0 | Some v -> v + 1 in
  let sym =
    match e.Collector.symbol with
    | Symbol.Entry -> 0
    | Symbol.Exit -> 1
    | Symbol.Func f -> 2 + (4 * String.length f)
    | Symbol.Lib { name; label; site } ->
        3 + (4 * (String.length name + (256 * (opt label + (8191 * opt site)))))
  in
  e.Collector.block + (8191 * (String.length e.Collector.caller + (256 * sym)))

let parse_event ?cache line =
  match String.split_on_char '\t' line with
  | [ caller; block; sym ] -> (
      match int_of_string_opt block with
      | None -> Error (Printf.sprintf "bad block id %S" block)
      | Some block -> (
          match decode_symbol sym with
          | Ok symbol -> (
              let ev = { Collector.caller; block; symbol } in
              match cache with
              | None -> Ok ev
              | Some c -> Ok (Collector.Cache.share c ~hash:(cache_key ev) ev))
          | Error e -> Error e))
  | fields ->
      Error
        (Printf.sprintf "expected 3 tab-separated fields (caller, block, symbol), got %d"
           (List.length fields))
