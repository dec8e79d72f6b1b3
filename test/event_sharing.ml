(* Checks shared by the text and binary decoder suites: a decoder's
   event cache makes repeated events one record, and stays the same
   size however many distinct events a peer sends. *)

module Transport = Adprom_service.Transport
module Symbol = Analysis.Symbol

(* at most seven bytes each, so every string is one word of payload and
   every cached event has the same size *)
let callers = [| "main"; "login"; "deposit"; "report"; "audit"; "close"; "open"; "update" |]
let names = [| "printf"; "pq_exec"; "fwrite"; "puts" |]

(* [n] call items whose (caller, block, label) triples are all distinct;
   the strings cycle over a few values, so only the cache could grow *)
let distinct_items n =
  Array.init n (fun i ->
      Transport.Call
        {
          Transport.session = i mod 64;
          event =
            {
              Runtime.Collector.caller = callers.(i mod Array.length callers);
              block = i;
              symbol =
                Symbol.Lib
                  {
                    name = names.(i mod Array.length names);
                    label = Some i;
                    site = None;
                  };
            };
        })

(* Feed [bytes] to one decoder in [chunk]-byte reads, applying [f] to
   each item; [after] runs once per read, on the decoder and the reads
   done so far. *)
let feed (module T : Transport.S) ?(after = fun _ _ -> ()) ~chunk bytes ~f =
  let dec = T.decoder () in
  let n = String.length bytes in
  let rec go pos reads =
    if pos < n then begin
      let len = min chunk (n - pos) in
      (match T.fold dec ~pos ~len bytes ~init:() ~f:(fun () it -> f it) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "decode failed: %s" e);
      after (Obj.repr dec) (reads + 1);
      go (pos + len) (reads + 1)
    end
  in
  go 0 0;
  match T.finish dec with
  | Ok rest -> List.iter f rest
  | Error e -> Alcotest.failf "finish failed: %s" e

(* 100k all-distinct events: the decoder's reachable size once warm
   equals its size at the end, and the minor words it allocates per
   item stay under [max_words]. Its size after 64 KiB reads stays
   within 1,024 words of its size after 4 KiB reads: a frame or line
   split across two reads must not leave a read-sized buffer behind. *)
let check_bounded (module T : Transport.S) ~max_words =
  let n = 100_000 in
  let items = distinct_items n in
  let bytes = Transport.encode_all (module T) items in
  let decoded_size ~chunk =
    let warm = ref 0 and last = ref 0 in
    let after dec reads =
      let words = Obj.reachable_words dec in
      if reads = 4 then warm := words;
      last := words
    in
    let count = ref 0 in
    let w0 = Gc.minor_words () in
    feed (module T) ~after ~chunk bytes ~f:(fun _ -> incr count);
    Alcotest.(check int) "every item decoded" n !count;
    ((Gc.minor_words () -. w0) /. float_of_int n, !warm, !last)
  in
  let chunk = 65_536 in
  let per_item, warm, last = decoded_size ~chunk in
  Alcotest.(check bool)
    (Printf.sprintf "%d reads" ((String.length bytes + chunk - 1) / chunk))
    true
    (String.length bytes > 8 * chunk);
  Alcotest.(check int) "decoder size constant once warm" warm last;
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per item <= %d" per_item max_words)
    true
    (per_item <= float_of_int max_words);
  let _, _, small = decoded_size ~chunk:4096 in
  Alcotest.(check bool)
    (Printf.sprintf "%d words after 64 KiB reads, %d after 4 KiB reads" last small)
    true
    (abs (last - small) <= 1024)

(* One connection, chunk reads cut at odd offsets: every decoded event
   is the same record as the first decoded event equal to it. *)
let check_repeats_shared (module T : Transport.S) items =
  let bytes = Transport.encode_all (module T) items in
  let first = Hashtbl.create 256 in
  let calls = ref 0 and shared = ref 0 in
  feed (module T) ~chunk:4093 bytes ~f:(function
    | Transport.Call { Transport.event; _ } -> (
        incr calls;
        match Hashtbl.find_opt first event with
        | None -> Hashtbl.replace first event event
        | Some e -> if e == event then incr shared)
    | Transport.Query _ -> ());
  let distinct = Hashtbl.length first in
  Alcotest.(check bool)
    (Printf.sprintf "%d calls hold %d distinct events" !calls distinct)
    true
    (distinct > 1 && !calls > 4 * distinct);
  Alcotest.(check int) "every repeat is the first record" (!calls - distinct) !shared
