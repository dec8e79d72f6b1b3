(* A small JSON value type with a printer and a parser: enough for the
   benchmark's result lines, its results files and BENCHMARK.json. The
   program's own JSON helpers only emit. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let string = Adprom_obs.Json.string

(* Numbers keep every digit (%.17g round-trips a double); integers print
   without a fraction. Non-finite values have no JSON form: null. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> number f
  | Str s -> string s
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj l ->
      "{"
      ^ String.concat ", " (List.map (fun (k, v) -> string k ^ ": " ^ to_string v) l)
      ^ "}"

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Parse_error (Printf.sprintf "%s at byte %d" what !pos)) in
  let rec ws () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t' || s.[!pos] = '\r')
    then (incr pos; ws ())
  in
  let expect c = if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected %c" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (pos := !pos + String.length word; v)
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= n then fail "bad escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else Buffer.add_utf_8_uchar b (Uchar.of_int code)
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let rec value () =
    ws ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
        incr pos;
        ws ();
        if !pos < n && s.[!pos] = '}' then (incr pos; Obj [])
        else
          let rec fields acc =
            ws ();
            let k = str () in
            ws ();
            expect ':';
            let v = value () in
            ws ();
            if !pos < n && s.[!pos] = ',' then (incr pos; fields ((k, v) :: acc))
            else (expect '}'; Obj (List.rev ((k, v) :: acc)))
          in
          fields []
    | '[' ->
        incr pos;
        ws ();
        if !pos < n && s.[!pos] = ']' then (incr pos; Arr [])
        else
          let rec items acc =
            let v = value () in
            ws ();
            if !pos < n && s.[!pos] = ',' then (incr pos; items (v :: acc))
            else (expect ']'; Arr (List.rev (v :: acc)))
          in
          items []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while
          !pos < n
          && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
        do
          incr pos
        done;
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f when !pos > start -> Num f
        | _ -> fail "bad number")
  in
  match value () with
  | v ->
      ws ();
      if !pos <> n then Error (Printf.sprintf "trailing bytes at byte %d" !pos) else Ok v
  | exception Parse_error e -> Error e

let member k = function Obj l -> List.assoc_opt k l | _ -> None

let to_num = function Some (Num f) -> Some f | _ -> None
let to_str = function Some (Str s) -> Some s | _ -> None
let to_list = function Some (Arr l) -> l | _ -> []
