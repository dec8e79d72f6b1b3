type policy = Strict | Flexible

(* Value sets are kept only while small; past this many distinct
   members a slot degrades to its range/shape summary. *)
let max_set = 16

type shape = Digits | Alpha | Alnum | Other_shape

let shape_of_string_value s =
  let n = String.length s in
  if n = 0 then Other_shape
  else begin
    let digits = ref true and alpha = ref true in
    String.iter
      (fun c ->
        let d = c >= '0' && c <= '9' in
        let a = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') in
        if not d then digits := false;
        if not a then alpha := false;
        if not (d || a) then begin
          digits := false;
          alpha := false
        end)
      s;
    if !digits then Digits
    else if !alpha then Alpha
    else if String.for_all (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')) s then Alnum
    else Other_shape
  end

let shape_to_char = function Digits -> 'd' | Alpha -> 'a' | Alnum -> 'n' | Other_shape -> 'o'

let shape_of_char = function
  | 'd' -> Some Digits
  | 'a' -> Some Alpha
  | 'n' -> Some Alnum
  | 'o' -> Some Other_shape
  | _ -> None

module IntSet = Set.Make (Int)
module StrSet = Set.Make (String)

type ints = { ilo : int; ihi : int; iset : IntSet.t option }

type strs = {
  shapes : int;  (** bitmask over {!shape} *)
  llo : int;  (** min observed length *)
  lhi : int;  (** max observed length *)
  sset : StrSet.t option;
}

type slot =
  | Bot  (** no observation yet *)
  | Ints of ints
  | Strs of strs
  | Top  (** mixed types or a free placeholder: anything goes *)

type t = { dom : slot; nullable : bool }

let bot = { dom = Bot; nullable = false }
let top = { dom = Top; nullable = true }

let shape_bit s = 1 lsl (match s with Digits -> 0 | Alpha -> 1 | Alnum -> 2 | Other_shape -> 3)

let add_int_set set v =
  match set with
  | None -> None
  | Some s ->
      if IntSet.mem v s then set
      else if IntSet.cardinal s >= max_set then None
      else Some (IntSet.add v s)

let add_str_set set v =
  match set with
  | None -> None
  | Some s ->
      if StrSet.mem v s then set
      else if StrSet.cardinal s >= max_set then None
      else Some (StrSet.add v s)

let observe t (v : Signature.slot_value) =
  match v with
  | Signature.V_free -> { t with dom = Top }
  | Signature.V_null -> { t with nullable = true }
  | Signature.V_int n -> (
      match t.dom with
      | Bot -> { t with dom = Ints { ilo = n; ihi = n; iset = Some (IntSet.singleton n) } }
      | Ints i ->
          { t with
            dom = Ints { ilo = min i.ilo n; ihi = max i.ihi n; iset = add_int_set i.iset n } }
      | Strs _ -> { t with dom = Top }
      | Top -> t)
  | Signature.V_str s -> (
      let len = String.length s in
      let bit = shape_bit (shape_of_string_value s) in
      match t.dom with
      | Bot ->
          { t with
            dom = Strs { shapes = bit; llo = len; lhi = len; sset = Some (StrSet.singleton s) } }
      | Strs c ->
          { t with
            dom =
              Strs
                {
                  shapes = c.shapes lor bit;
                  llo = min c.llo len;
                  lhi = max c.lhi len;
                  sset = add_str_set c.sset s;
                } }
      | Ints _ -> { t with dom = Top }
      | Top -> t)

let observe_all t values = List.fold_left observe t values

(* Violation messages double as machine-checkable reasons; [None] means
   the value conforms. Flexible accepts a superset of Strict so that
   Flexible violations are always Strict violations too. *)
let describe_value = function
  | Signature.V_int n -> string_of_int n
  | Signature.V_str s -> Printf.sprintf "%S" s
  | Signature.V_null -> "NULL"
  | Signature.V_free -> "?"

let check policy t (v : Signature.slot_value) =
  match (t.dom, v) with
  | Top, _ | _, Signature.V_free -> None
  | Bot, _ -> None (* unconstrained: the signature itself was never trained *)
  | _, Signature.V_null -> if t.nullable then None else Some "NULL in a non-nullable slot"
  | Ints i, Signature.V_int n -> (
      let span = i.ihi - i.ilo in
      match policy with
      | Strict -> (
          match i.iset with
          | Some s when not (IntSet.mem n s) ->
              Some (Printf.sprintf "%d outside the trained value set" n)
          | Some _ -> None
          | None ->
              if n < i.ilo || n > i.ihi then
                Some (Printf.sprintf "%d outside the trained range [%d, %d]" n i.ilo i.ihi)
              else None)
      | Flexible ->
          if n < i.ilo - span || n > i.ihi + span then
            Some
              (Printf.sprintf "%d far outside the trained range [%d, %d]" n i.ilo i.ihi)
          else None)
  | Strs c, Signature.V_str s -> (
      let len = String.length s in
      let bit = shape_bit (shape_of_string_value s) in
      let shape_ok = c.shapes land bit <> 0 in
      match policy with
      | Strict -> (
          match c.sset with
          | Some set when not (StrSet.mem s set) ->
              Some (Printf.sprintf "%S outside the trained value set" s)
          | Some _ -> None
          | None ->
              if not shape_ok then Some (Printf.sprintf "%S has an untrained shape" s)
              else if len < c.llo || len > c.lhi then
                Some
                  (Printf.sprintf "%S length outside the trained band [%d, %d]" s c.llo
                     c.lhi)
              else None)
      | Flexible ->
          if not shape_ok then Some (Printf.sprintf "%S has an untrained shape" s)
          else if len > (2 * c.lhi) + 8 then
            Some (Printf.sprintf "%S far longer than trained values" s)
          else None)
  | Ints _, Signature.V_str _ | Strs _, Signature.V_int _ ->
      Some (Printf.sprintf "%s has the wrong type for this slot" (describe_value v))

let check_all policy t values = List.filter_map (check policy t) values

(* ------------------------------------------------------------------ *)
(* Result-cardinality bands. *)

type band = { blo : int; bhi : int; samples : int }

let band_empty = { blo = max_int; bhi = min_int; samples = 0 }

let band_observe b rows =
  { blo = min b.blo rows; bhi = max b.bhi rows; samples = b.samples + 1 }

let band_check policy b rows =
  if b.samples = 0 then None
  else
    match policy with
    | Strict ->
        if rows < b.blo || rows > b.bhi then Some (b.blo, b.bhi) else None
    | Flexible -> if rows > (4 * b.bhi) + 8 then Some (b.blo, b.bhi) else None

(* ------------------------------------------------------------------ *)
(* Line-safe serialization for profile files. Values are percent-
   encoded so commas, tabs and newlines survive the round trip. *)

let encode_value s =
  let buf = Buffer.create (String.length s + 4) in
  String.iter
    (fun c ->
      match c with
      | '%' | ',' | '\t' | '\n' | '\r' | ' ' ->
          Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let decode_value s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '%' && !i + 2 < n then begin
       match int_of_string_opt ("0x" ^ String.sub s (!i + 1) 2) with
       | Some code ->
           Buffer.add_char buf (Char.chr code);
           i := !i + 3
       | None ->
           Buffer.add_char buf s.[!i];
           incr i
     end
     else begin
       Buffer.add_char buf s.[!i];
       incr i
     end)
  done;
  Buffer.contents buf

let slot_to_string t =
  let null = if t.nullable then "1" else "0" in
  match t.dom with
  | Bot -> Printf.sprintf "bot %s" null
  | Top -> Printf.sprintf "top %s" null
  | Ints i ->
      let set =
        match i.iset with
        | None -> "-"
        | Some s -> String.concat "," (List.map string_of_int (IntSet.elements s))
      in
      Printf.sprintf "int %s %d %d %s" null i.ilo i.ihi set
  | Strs c ->
      let shapes =
        String.concat ""
          (List.filter_map
             (fun sh -> if c.shapes land shape_bit sh <> 0 then Some (String.make 1 (shape_to_char sh)) else None)
             [ Digits; Alpha; Alnum; Other_shape ])
      in
      let set =
        match c.sset with
        | None -> "-"
        | Some s -> String.concat "," (List.map encode_value (StrSet.elements s))
      in
      Printf.sprintf "str %s %d %d %s %s" null c.llo c.lhi
        (if shapes = "" then "-" else shapes)
        set

let slot_of_string line =
  let nullable_of = function "1" -> Some true | "0" -> Some false | _ -> None in
  match String.split_on_char ' ' line with
  | [ "bot"; n ] -> Option.map (fun nullable -> { dom = Bot; nullable }) (nullable_of n)
  | [ "top"; n ] -> Option.map (fun nullable -> { dom = Top; nullable }) (nullable_of n)
  | [ "int"; n; lo; hi; set ] -> (
      match (nullable_of n, int_of_string_opt lo, int_of_string_opt hi) with
      | Some nullable, Some ilo, Some ihi ->
          let iset =
            if set = "-" then None
            else
              Some
                (List.fold_left
                   (fun acc x ->
                     match int_of_string_opt x with
                     | Some v -> IntSet.add v acc
                     | None -> acc)
                   IntSet.empty
                   (if set = "" then [] else String.split_on_char ',' set))
          in
          Some { dom = Ints { ilo; ihi; iset }; nullable }
      | _ -> None)
  | [ "str"; n; llo; lhi; shapes; set ] -> (
      match (nullable_of n, int_of_string_opt llo, int_of_string_opt lhi) with
      | Some nullable, Some llo, Some lhi ->
          let mask =
            if shapes = "-" then 0
            else
              String.fold_left
                (fun acc c ->
                  match shape_of_char c with
                  | Some sh -> acc lor shape_bit sh
                  | None -> acc)
                0 shapes
          in
          let sset =
            if set = "-" then None
            else
              Some
                (List.fold_left
                   (fun acc x -> StrSet.add (decode_value x) acc)
                   StrSet.empty
                   (if set = "" then [] else String.split_on_char ',' set))
          in
          Some { dom = Strs { shapes = mask; llo; lhi; sset }; nullable }
      | _ -> None)
  | _ -> None
