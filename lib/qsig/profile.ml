type entry = {
  mutable slots : Constraints.t array;
  mutable band : Constraints.band;
  mutable count : int;
}

type t = { entries : (string, entry) Hashtbl.t; mutable malformed : int }

let create () = { entries = Hashtbl.create 16; malformed = 0 }

let find_by_text t text = Hashtbl.find_opt t.entries text

let entry_for t signature nslots =
  let key = Signature.to_string signature in
  match Hashtbl.find_opt t.entries key with
  | Some e ->
      (* Arity classes guarantee equal slot counts per signature; stay
         defensive anyway and widen extra positions to Top. *)
      if Array.length e.slots < nslots then begin
        let widened = Array.make nslots Constraints.top in
        Array.blit e.slots 0 widened 0 (Array.length e.slots);
        e.slots <- widened
      end;
      e
  | None ->
      let e =
        {
          slots = Array.make nslots Constraints.bot;
          band = Constraints.band_empty;
          count = 0;
        }
      in
      Hashtbl.replace t.entries key e;
      e

let learn_statement rows t stmt =
  let signature = Signature.of_statement stmt in
  let observed = Signature.slots stmt in
  let e = entry_for t signature (Array.length observed) in
  Array.iteri
    (fun i values ->
      if i < Array.length e.slots then
        e.slots.(i) <- Constraints.observe_all e.slots.(i) values)
    observed;
  (match rows with Some n -> e.band <- Constraints.band_observe e.band n | None -> ());
  e.count <- e.count + 1

let learn_rows rows t sql =
  match Sqldb.Sql_parser.parse sql with
  | Ok stmt -> learn_statement rows t stmt
  | Error _ -> t.malformed <- t.malformed + 1

let learn t sql = learn_rows None t sql

(* Register the signature without observing slot values — for texts
   seen at prepare time, whose [?] placeholders would otherwise widen
   the slots of the bound executions sharing the signature to Top. *)
let learn_shape t sql =
  match Sqldb.Sql_parser.parse sql with
  | Ok stmt ->
      let signature = Signature.of_statement stmt in
      let observed = Signature.slots stmt in
      ignore (entry_for t signature (Array.length observed))
  | Error _ -> t.malformed <- t.malformed + 1

let learn_log t log = List.iter (fun (sql, rows) -> learn_rows (Some rows) t sql) log

let copy t =
  let entries = Hashtbl.create (max 16 (Hashtbl.length t.entries * 2)) in
  Hashtbl.iter
    (fun key e ->
      Hashtbl.replace entries key
        { slots = Array.copy e.slots; band = e.band; count = e.count })
    t.entries;
  { entries; malformed = t.malformed }

let mem t signature = Hashtbl.mem t.entries (Signature.to_string signature)

let signatures t =
  Hashtbl.fold (fun key _ acc -> key :: acc) t.entries [] |> List.sort String.compare

let cardinality t = Hashtbl.length t.entries

let malformed_count t = t.malformed

let fold f t acc = Hashtbl.fold (fun key e acc -> f key e acc) t.entries acc

(* ------------------------------------------------------------------ *)
(* Text persistence: one [sig] line per signature followed by its
   [slot] lines. Signatures contain no tabs, slot lines no newlines. *)

let save_lines t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# adprom qsig profile v1\n";
  Buffer.add_string buf (Printf.sprintf "malformed\t%d\n" t.malformed);
  List.iter
    (fun key ->
      let e = Hashtbl.find t.entries key in
      Buffer.add_string buf
        (Printf.sprintf "sig\t%d\t%d\t%d\t%d\t%s\n" e.count e.band.Constraints.blo
           e.band.Constraints.bhi e.band.Constraints.samples key);
      Array.iter
        (fun slot ->
          Buffer.add_string buf
            (Printf.sprintf "slot\t%s\n" (Constraints.slot_to_string slot)))
        e.slots)
    (signatures t);
  Buffer.contents buf

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (save_lines t))

let load_lines lines =
  let t = create () in
  let current = ref None in
  let pending = ref [] in
  let flush_slots () =
    match !current with
    | None -> ()
    | Some e -> e.slots <- Array.of_list (List.rev !pending)
  in
  let err lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let rec go lineno = function
    | [] ->
        flush_slots ();
        Ok t
    | line :: rest -> (
        if line = "" || line.[0] = '#' then go (lineno + 1) rest
        else
          match String.split_on_char '\t' line with
          | [ "malformed"; n ] -> (
              match int_of_string_opt n with
              | Some n ->
                  t.malformed <- n;
                  go (lineno + 1) rest
              | None -> err lineno "bad malformed count")
          | "sig" :: count :: blo :: bhi :: samples :: sig_rest -> (
              let key = String.concat "\t" sig_rest in
              match
                ( int_of_string_opt count,
                  int_of_string_opt blo,
                  int_of_string_opt bhi,
                  int_of_string_opt samples )
              with
              | Some count, Some blo, Some bhi, Some samples ->
                  flush_slots ();
                  pending := [];
                  let e =
                    {
                      slots = [||];
                      band = { Constraints.blo; bhi; samples };
                      count;
                    }
                  in
                  Hashtbl.replace t.entries key e;
                  current := Some e;
                  go (lineno + 1) rest
              | _ -> err lineno "bad sig header")
          | [ "slot"; body ] -> (
              match (!current, Constraints.slot_of_string body) with
              | Some _, Some slot ->
                  pending := slot :: !pending;
                  go (lineno + 1) rest
              | None, _ -> err lineno "slot line before any sig line"
              | _, None -> err lineno "unreadable slot")
          | _ -> err lineno "unrecognized line")
  in
  go 1 lines

let load path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec read acc =
            match input_line ic with
            | line -> read (line :: acc)
            | exception End_of_file -> List.rev acc
          in
          load_lines (read []))

(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"signatures\": [\n";
  let keys = signatures t in
  List.iteri
    (fun i key ->
      let e = Hashtbl.find t.entries key in
      let band =
        if e.band.Constraints.samples = 0 then "null"
        else
          Printf.sprintf "{\"lo\": %d, \"hi\": %d, \"samples\": %d}"
            e.band.Constraints.blo e.band.Constraints.bhi e.band.Constraints.samples
      in
      let slots =
        Array.to_list e.slots
        |> List.map (fun s -> Printf.sprintf "\"%s\"" (json_escape (Constraints.slot_to_string s)))
        |> String.concat ", "
      in
      Buffer.add_string buf
        (Printf.sprintf "    {\"signature\": \"%s\", \"count\": %d, \"band\": %s, \"slots\": [%s]}%s\n"
           (json_escape key) e.count band slots
           (if i = List.length keys - 1 then "" else ",")))
    keys;
  Buffer.add_string buf
    (Printf.sprintf "  ],\n  \"malformed\": %d\n}\n" t.malformed);
  Buffer.contents buf
