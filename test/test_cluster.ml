(* Tests for the binary wire protocol and the scale-out tier: QCheck2
   round-trips of frames under adversarial TCP chunking, totality of the
   decoder on truncated/corrupted bytes and on frames stamped with
   another wire version, consistent-hash ring properties, the
   negative-row-count regression, a closed router's refusal to touch
   its sockets, and a forked 2-node cluster whose merged verdicts must
   be bit-for-bit the single-node replay's. *)

module Transport = Adprom_service.Transport
module Frame = Adprom_service.Frame
module Server = Adprom_service.Server
module Cluster = Adprom_service.Cluster
module Daemon = Adprom_service.Daemon
module Replay = Adprom_service.Replay
module Alerts = Adprom_service.Alerts
module Detector = Adprom.Detector
module Pipeline = Adprom.Pipeline
module Sessions = Adprom.Sessions
module Symbol = Analysis.Symbol

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  if nl = 0 then true
  else begin
    let found = ref false in
    for i = 0 to hl - nl do
      if (not !found) && String.sub hay i nl = needle then found := true
    done;
    !found
  end

(* --- generators ------------------------------------------------------------ *)

let gen_pool = [ "read"; "printf"; "pq_exec"; "pq_getvalue"; "helper"; "x" ]

let gen_symbol =
  QCheck2.Gen.(
    oneof
      [
        return Symbol.Entry;
        return Symbol.Exit;
        map (fun n -> Symbol.Func n) (oneofl gen_pool);
        map3
          (fun n label site -> Symbol.Lib { name = n; label; site })
          (oneofl gen_pool) (opt (int_range 0 50)) (opt (int_range 0 50));
      ])

let gen_event =
  QCheck2.Gen.(
    map3
      (fun session caller (block, symbol) ->
        Transport.Call
          { Transport.session; event = { Runtime.Collector.caller; block; symbol } })
      (int_range 0 200) (oneofl gen_pool)
      (pair (int_range (-1) 40) gen_symbol))

(* arbitrary bytes in the sql — tabs, newlines, NULs: the binary frames
   must carry anything *)
let gen_sql =
  QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 30))

let gen_query =
  QCheck2.Gen.(
    map3
      (fun q_session rows sql -> Transport.Query { Transport.q_session; rows; sql })
      (int_range 0 200) (int_range 0 1000) gen_sql)

let gen_items =
  QCheck2.Gen.(
    list_size (int_range 0 120)
      (frequency [ (4, gen_event); (1, gen_query) ]))

let encode_items items =
  Transport.encode_all (module Frame.T) (Array.of_list items)

(* one chunk's items, in order, through a transport's fold *)
let items_of fold dec ?pos ?len s =
  Result.map List.rev (fold dec ?pos ?len s ~init:[] ~f:(fun acc it -> it :: acc))

let frame_items dec ?pos ?len s = items_of Frame.T.fold dec ?pos ?len s
let text_items dec ?pos ?len s = items_of Transport.Text.fold dec ?pos ?len s

(* --- binary round-trip under chunked reads --------------------------------- *)

let prop_binary_roundtrip_chunked =
  QCheck2.Test.make
    ~name:"binary frames round-trip under arbitrary TCP chunking" ~count:300
    QCheck2.Gen.(pair gen_items (list_size (int_range 0 40) (int_range 1 13)))
    (fun (items, cuts) ->
      let bytes = encode_items items in
      let dec = Frame.T.decoder () in
      let n = String.length bytes in
      let rec go pos cs acc =
        if pos >= n then acc
        else begin
          let len =
            match cs with [] -> n - pos | c :: _ -> min c (n - pos)
          in
          let cs = match cs with [] -> [] | _ :: t -> t in
          match frame_items dec ~pos ~len bytes with
          | Ok got -> go (pos + len) cs (acc @ got)
          | Error e -> QCheck2.Test.fail_reportf "feed error: %s" e
        end
      in
      let got = go 0 cuts [] in
      let got =
        got
        @
        match Frame.T.finish dec with
        | Ok rest -> rest
        | Error e -> QCheck2.Test.fail_reportf "finish error: %s" e
      in
      got = items)

(* --- totality: truncation and corruption never raise ------------------------ *)

let prop_truncated_never_raises =
  QCheck2.Test.make ~name:"truncated binary streams fail cleanly" ~count:300
    QCheck2.Gen.(pair gen_items (int_range 0 1_000_000))
    (fun (items, cut) ->
      let bytes = encode_items items in
      let cut = if String.length bytes = 0 then 0 else cut mod String.length bytes in
      let prefix = String.sub bytes 0 cut in
      match Transport.decode_all (module Frame.T) prefix with
      | Ok got ->
          (* a cut on a frame boundary yields a prefix of the items *)
          let got = Array.to_list got in
          let rec is_prefix a b =
            match (a, b) with
            | [], _ -> true
            | x :: a', y :: b' -> x = y && is_prefix a' b'
            | _ -> false
          in
          is_prefix got items
      | Error _ -> true)

let prop_corrupt_never_raises =
  QCheck2.Test.make ~name:"corrupted binary bytes never raise" ~count:500
    QCheck2.Gen.(
      triple gen_items (int_range 0 1_000_000) (int_range 0 255))
    (fun (items, pos, byte) ->
      let bytes = encode_items items in
      if String.length bytes = 0 then true
      else begin
        let pos = pos mod String.length bytes in
        let b = Bytes.of_string bytes in
        Bytes.set b pos (Char.chr byte);
        match Transport.decode_all (module Frame.T) (Bytes.to_string b) with
        | Ok _ | Error _ -> true
      end)

(* --- control frames --------------------------------------------------------- *)

let roundtrip_frame f =
  let enc = Frame.Encoder.create () in
  let buf = Buffer.create 256 in
  Frame.Encoder.add enc buf f;
  Frame.Encoder.flush enc buf;
  let dec = Frame.Decoder.create () in
  match Frame.Decoder.feed dec ~len:(Buffer.length buf) (Buffer.contents buf) with
  | Error e -> Alcotest.failf "decode: %s" (Frame.error_to_string e)
  | Ok [ f' ] ->
      Alcotest.(check bool)
        (Printf.sprintf "%s frame round-trips" (Frame.frame_name f))
        true (f = f')
  | Ok fs -> Alcotest.failf "expected one frame, got %d" (List.length fs)

let test_control_frames () =
  roundtrip_frame (Frame.Hello { peer = "router"; sample = None });
  roundtrip_frame
    (Frame.Hello { peer = "alpha"; sample = Some (123_456_789L, 987_654_321L) });
  roundtrip_frame (Frame.Ack { count = 123_456 });
  roundtrip_frame Frame.Bye;
  roundtrip_frame (Frame.Clock_probe { seq = 7 });
  roundtrip_frame
    (Frame.Clock_reply { seq = 7; mono_ns = 55_123_000L; wall_ns = 1_700_000_000_000_000_000L });
  roundtrip_frame
    (Frame.Trace_mark { trace_id = 42; send_mono_ns = 99_000L; offset_ns = -12_345L });
  roundtrip_frame Frame.Health_req;
  roundtrip_frame
    (Frame.Health_resp
       {
         Frame.h_node = "alpha";
         h_status = Adprom_service.Health.Degraded;
         h_snapshot =
           {
             Adprom_service.Metrics.counters = [ ("adprom_events_offered_total", 10) ];
             gauges = [ ("adprom_queue_depth_shard0", 3, 7) ];
             histograms =
               [
                 {
                   Adprom_service.Metrics.hs_name = "adprom_e2e_latency_seconds";
                   hs_bounds = [| 0.001; 0.1 |];
                   hs_buckets = [| 2; 1; 0 |];
                   hs_sum = 0.0521;
                   hs_count = 3;
                 };
               ];
           };
         h_incidents = [ (97, "verdict out-of-context ...") ];
         h_uptime_s = 12.5;
       });
  roundtrip_frame Frame.Spans_req;
  roundtrip_frame
    (Frame.Spans_resp
       [
         {
           Adprom_obs.Trace.name = "wire.batch";
           trace_id = 42;
           span_id = 43;
           parent = None;
           domain = 0;
           start_ns = 1_000L;
           dur_ns = 2_500L;
           attrs = [ ("items", "12") ];
         };
       ]);
  let verdicts =
    [
      { Detector.flag = Detector.Normal; score = -1.234567890123; unknown_symbol = false; unknown_pair = None };
      {
        Detector.flag = Detector.Out_of_context;
        score = Float.min_float;
        unknown_symbol = true;
        unknown_pair = Some ("intruder", Symbol.Lib { name = "evil"; label = Some 3; site = None });
      };
    ]
  in
  roundtrip_frame
    (Frame.Summary
       {
         Frame.node = "alpha";
         summary =
           {
             Daemon.sessions =
               [
                 {
                   Daemon.session = 0;
                   events = 17;
                   windows = 3;
                   worst = Detector.Out_of_context;
                   verdicts;
                   qsig_checks = 2;
                   qsig_anomalies = 1;
                 };
               ];
             shed = [ (9, 120, 37) ];
             events_offered = 137;
             events_ingested = 17;
             events_dropped = 120;
           };
         incidents = [ (0, "verdict out-of-context ...") ];
         fused = [ (0, Alerts.Both_axes) ];
       })

let test_score_bits_survive () =
  (* scores travel as IEEE-754 bits, not decimal text: even a payload
     that decimal printing would round must come back identical *)
  let score = 0x3FF123456789ABCDL in
  let v =
    {
      Detector.flag = Detector.Anomalous;
      score = Int64.float_of_bits score;
      unknown_symbol = false;
      unknown_pair = None;
    }
  in
  let f =
    Frame.Summary
      {
        Frame.node = "n";
        summary =
          {
            Daemon.sessions =
              [
                {
                  Daemon.session = 1;
                  events = 1;
                  windows = 1;
                  worst = Detector.Anomalous;
                  verdicts = [ v ];
                  qsig_checks = 0;
                  qsig_anomalies = 0;
                };
              ];
            shed = [];
            events_offered = 1;
            events_ingested = 1;
            events_dropped = 0;
          };
        incidents = [];
        fused = [];
      }
  in
  let enc = Frame.Encoder.create () in
  let buf = Buffer.create 64 in
  Frame.Encoder.add enc buf f;
  Frame.Encoder.flush enc buf;
  match Frame.Decoder.feed (Frame.Decoder.create ()) ~len:(Buffer.length buf) (Buffer.contents buf) with
  | Ok [ Frame.Summary s ] ->
      let v' = List.hd (List.hd s.Frame.summary.Daemon.sessions).Daemon.verdicts in
      Alcotest.(check bool) "score bits identical" true
        (Int64.bits_of_float v'.Detector.score = score)
  | _ -> Alcotest.fail "summary did not round-trip"

let test_decode_errors_are_structured () =
  let check_error needle bytes =
    match Transport.decode_all (module Frame.T) bytes with
    | Ok _ -> Alcotest.failf "expected an error mentioning %S" needle
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "error %S mentions %S" e needle)
          true (contains ~needle e)
  in
  (* the current stamp, so each header below reaches the check it targets *)
  let stamped = Frame.magic ^ String.make 1 (Char.chr Frame.protocol_version) in
  (* wrong magic: a text line fed to the binary decoder *)
  check_error "bad magic" "1\tmain\t3\tlib:read:-:-\n";
  (* future version *)
  check_error "version" (Frame.magic ^ "\x63\x02\x00\x00\x00\x00");
  (* unknown frame type *)
  check_error "frame type" (stamped ^ "\x63\x00\x00\x00\x00");
  (* oversized payload length *)
  check_error "exceeds" (stamped ^ "\x02\x7f\xff\xff\xff");
  (* truncated mid-frame *)
  check_error "truncated" (stamped ^ "\x02\x00\x00\x00\x10abc");
  (* a control frame where items are expected *)
  let enc = Frame.Encoder.create () in
  let buf = Buffer.create 16 in
  Frame.Encoder.add enc buf Frame.Bye;
  Frame.Encoder.flush enc buf;
  check_error "bye" (Buffer.contents buf);
  (* the decoder stays dead after an error *)
  let dec = Frame.T.decoder () in
  (match frame_items dec "not a frame at all....." with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  match frame_items dec (encode_items [ ]) with
  | Ok _ -> Alcotest.fail "decoder resurrected after error"
  | Error _ -> ()

let test_detect () =
  let items =
    [ Transport.Call { Transport.session = 0; event = { Runtime.Collector.caller = "main"; block = 1; symbol = Symbol.Entry } } ]
  in
  Alcotest.(check bool) "binary detected" true
    (Frame.detect (encode_items items) = Transport.Binary);
  Alcotest.(check bool) "text detected" true
    (Frame.detect (Transport.encode_all (module Transport.Text) (Array.of_list items)) = Transport.Line);
  Alcotest.(check bool) "empty is text" true (Frame.detect "" = Transport.Line)

(* One wire version: a well-formed frame stamped with any other version
   is refused by the header check of both decoders, before its payload
   is read. *)
let test_other_versions_refused () =
  let restamp ver frame =
    let enc = Frame.Encoder.create () in
    let buf = Buffer.create 64 in
    Frame.Encoder.add enc buf frame;
    Frame.Encoder.flush enc buf;
    let b = Buffer.to_bytes buf in
    Bytes.set b 2 (Char.chr ver);
    Bytes.to_string b
  in
  let call =
    Frame.Call
      { Transport.session = 3;
        event = { Runtime.Collector.caller = "main"; block = 1; symbol = Symbol.Entry } }
  in
  let hello = Frame.Hello { peer = "router"; sample = None } in
  List.iter
    (fun (ver, frame) ->
      let bytes = restamp ver frame in
      let what = Printf.sprintf "%s stamped %d" (Frame.frame_name frame) ver in
      (match Frame.Decoder.feed (Frame.Decoder.create ()) ~len:(String.length bytes) bytes with
      | Error (Frame.Bad_version v) -> Alcotest.(check int) (what ^ ": frame decoder") ver v
      | Error e -> Alcotest.failf "%s: frame decoder said %s" what (Frame.error_to_string e)
      | Ok _ -> Alcotest.failf "%s accepted by the frame decoder" what);
      match frame_items (Frame.T.decoder ()) bytes with
      | Error e ->
          Alcotest.(check string) (what ^ ": item decoder")
            (Frame.error_to_string (Frame.Bad_version ver))
            e
      | Ok _ -> Alcotest.failf "%s accepted by the item decoder" what)
    [ (1, call); (1, hello); (3, call) ]

(* Tags 4 and 5 are unassigned: a frame carrying one is refused by the
   header check of both decoders, as an error value, not an exception
   out of the payload reader. *)
let test_unassigned_tags_refused () =
  let stamped = Frame.magic ^ String.make 1 (Char.chr Frame.protocol_version) in
  List.iter
    (fun tag ->
      let bytes = stamped ^ String.make 1 (Char.chr tag) ^ "\x00\x00\x00\x00" in
      let what = Printf.sprintf "tag %d" tag in
      (match Frame.Decoder.feed (Frame.Decoder.create ()) ~len:(String.length bytes) bytes with
      | Error (Frame.Bad_frame_type t) -> Alcotest.(check int) (what ^ ": frame decoder") tag t
      | Error e -> Alcotest.failf "%s: frame decoder said %s" what (Frame.error_to_string e)
      | Ok _ -> Alcotest.failf "%s accepted by the frame decoder" what);
      match frame_items (Frame.T.decoder ()) bytes with
      | Error e ->
          Alcotest.(check string) (what ^ ": item decoder")
            (Frame.error_to_string (Frame.Bad_frame_type tag))
            e
      | Ok _ -> Alcotest.failf "%s accepted by the item decoder" what)
    [ 4; 5 ]

(* --- negative row counts (regression) --------------------------------------- *)

let test_negative_rows_rejected () =
  (match Transport.Text.parse_query_line "q\t1\t-5\tSELECT name FROM t" with
  | Ok _ -> Alcotest.fail "negative row count accepted"
  | Error e ->
      Alcotest.(check bool) "names the defect" true
        (contains ~needle:"negative row count" e));
  (* through the streaming decoder, with the line number *)
  (match
     Transport.decode_all
       (module Transport.Text)
       "q\t1\t2\tSELECT name FROM t\nq\t1\t-3\tSELECT name FROM t"
   with
  | Ok _ -> Alcotest.fail "negative row count accepted by decode"
  | Error e ->
      Alcotest.(check bool) (Printf.sprintf "%S names line 2" e) true
        (contains ~needle:"line 2:" e));
  (* and the binary encoder refuses to emit one *)
  let enc = Frame.Encoder.create () in
  let buf = Buffer.create 16 in
  match
    Frame.Encoder.add enc buf
      (Frame.Query { Transport.q_session = 1; rows = -1; sql = "SELECT" })
  with
  | () -> Alcotest.fail "binary encoder accepted a negative row count"
  | exception Invalid_argument _ -> ()

(* A 9-byte varint whose final byte spills into the sign bit decodes to
   a negative OCaml int. The text parser and the binary encoder both
   reject negative sessions/rows, so crafted binary frames must not be
   the one path that smuggles them through to the daemon. *)
let test_negative_varints_rejected () =
  let neg_varint = "\x80\x80\x80\x80\x80\x80\x80\x80\x7f" in
  let frame tag payload =
    let len = String.length payload in
    Printf.sprintf "%s%c%c%c%c%c%c%s" Frame.magic
      (Char.chr Frame.protocol_version) (Char.chr tag)
      (Char.chr (len lsr 24 land 0xff))
      (Char.chr (len lsr 16 land 0xff))
      (Char.chr (len lsr 8 land 0xff))
      (Char.chr (len land 0xff))
      payload
  in
  let check_frame_rejected what bytes =
    match Frame.Decoder.feed (Frame.Decoder.create ()) ~len:(String.length bytes) bytes with
    | Ok _ -> Alcotest.failf "%s accepted by the frame decoder" what
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s rejected as malformed" what)
          true
          (match e with Frame.Bad_payload _ -> true | _ -> false)
  in
  let check_items_rejected what bytes =
    match Transport.decode_all (module Frame.T) bytes with
    | Ok _ -> Alcotest.failf "%s accepted by the item decoder" what
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s rejected as malformed (%S)" what e)
          true
          (contains ~needle:"malformed" e)
  in
  (* query: negative rows, negative session *)
  let q_neg_rows = frame 3 ("\x01" ^ neg_varint ^ "\x00") in
  let q_neg_session = frame 3 (neg_varint ^ "\x00\x00") in
  (* call: negative session (strref defines caller "m" inline, block 0,
     symbol entry), and a negative string reference *)
  let call_neg_session = frame 2 (neg_varint ^ "\x00\x01m\x00\x00") in
  let call_neg_strref = frame 2 ("\x01" ^ neg_varint ^ "\x00\x00") in
  let ack_neg_count = frame 1 neg_varint in
  check_frame_rejected "negative row count" q_neg_rows;
  check_frame_rejected "negative query session" q_neg_session;
  check_frame_rejected "negative call session" call_neg_session;
  check_frame_rejected "negative string reference" call_neg_strref;
  check_frame_rejected "negative ack count" ack_neg_count;
  check_items_rejected "negative row count" q_neg_rows;
  check_items_rejected "negative query session" q_neg_session;
  check_items_rejected "negative call session" call_neg_session;
  check_items_rejected "negative string reference" call_neg_strref

let test_text_chunked_feed () =
  let text = "1\tmain\t3\tlib:read:-:-\nq\t1\t2\tSELECT name FROM t\n2\tmain\t1\tentry\n" in
  let whole =
    match Transport.decode_all (module Transport.Text) text with
    | Ok items -> Array.to_list items
    | Error e -> Alcotest.failf "whole decode failed: %s" e
  in
  let dec = Transport.Text.decoder () in
  let got = ref [] in
  String.iteri
    (fun i _ ->
      match text_items dec ~pos:i ~len:1 text with
      | Ok items -> got := !got @ items
      | Error e -> Alcotest.failf "byte-at-a-time feed failed: %s" e)
    text;
  (match Transport.Text.finish dec with
  | Ok items -> got := !got @ items
  | Error e -> Alcotest.failf "finish failed: %s" e);
  Alcotest.(check bool) "byte-at-a-time = whole buffer" true (!got = whole)

(* The binary decoder's event cache: bounded under a peer that sends
   only distinct events, and sharing on a real banking stream. *)
let test_binary_cache_bounded () =
  Event_sharing.check_bounded (module Frame.T) ~max_words:40

let test_binary_repeats_shared () =
  let app = Dataset.Ca_banking.app () in
  let _, items = Banking_stream.items (Banking_stream.runs app (Pipeline.analyze_app app)) in
  Event_sharing.check_repeats_shared (module Frame.T) items

(* A peer that never sends a newline: the partial line is capped at
   [max_item_bytes], the overflowing feed is a [line N:] error, and the
   decoder stays dead. *)
let test_text_line_cap () =
  let cap = Transport.max_item_bytes in
  Alcotest.(check int) "one cap for both wires" cap Frame.max_payload;
  let dec = Transport.Text.decoder () in
  (match text_items dec "1\tmain\t3\tentry\n" with
  | Ok [ _ ] -> ()
  | _ -> Alcotest.fail "a complete line decodes");
  let chunk = String.make (1 lsl 20) 'x' in
  let rec go fed =
    let r = text_items dec chunk in
    Alcotest.(check bool) "pending within the cap" true
      (Transport.Text.pending_bytes dec <= cap);
    match r with
    | Ok [] when fed < 2 * cap -> go (fed + String.length chunk)
    | Ok _ -> Alcotest.failf "no error after %d newline-free bytes" fed
    | Error e -> (fed, e)
  in
  let fed, err = go 0 in
  Alcotest.(check bool) "error only past the cap" true (fed + String.length chunk > cap);
  Alcotest.(check bool) ("line-numbered: " ^ err) true
    (String.length err > 7 && String.sub err 0 7 = "line 2:");
  Alcotest.(check bool) "poisoned" true
    (Result.is_error (text_items dec "\n1\tmain\t3\tentry\n"));
  Alcotest.(check bool) "finish reports it" true
    (Result.is_error (Transport.Text.finish dec))

(* --- consistent-hash ring ---------------------------------------------------- *)

let test_ring_deterministic () =
  let r1 = Cluster.Ring.create [ "alpha"; "beta"; "gamma" ] in
  let r2 = Cluster.Ring.create [ "alpha"; "beta"; "gamma" ] in
  for s = 0 to 499 do
    Alcotest.(check string)
      (Printf.sprintf "session %d stable" s)
      (Cluster.Ring.node r1 s) (Cluster.Ring.node r2 s)
  done

let test_ring_balance () =
  let nodes = [ "alpha"; "beta"; "gamma" ] in
  let ring = Cluster.Ring.create nodes in
  let counts = Hashtbl.create 4 in
  let sessions = 3000 in
  for s = 0 to sessions - 1 do
    let n = Cluster.Ring.node ring s in
    Hashtbl.replace counts n (1 + Option.value ~default:0 (Hashtbl.find_opt counts n))
  done;
  List.iter
    (fun n ->
      let c = Option.value ~default:0 (Hashtbl.find_opt counts n) in
      Alcotest.(check bool)
        (Printf.sprintf "%s holds a fair share (%d/%d)" n c sessions)
        true
        (c > sessions * 15 / 100))
    nodes

let test_ring_minimal_remap () =
  let three = Cluster.Ring.create [ "alpha"; "beta"; "gamma" ] in
  let two = Cluster.Ring.create [ "alpha"; "beta" ] in
  let moved = ref 0 in
  for s = 0 to 999 do
    let before = Cluster.Ring.node three s in
    let after = Cluster.Ring.node two s in
    if before <> "gamma" then
      Alcotest.(check string)
        (Printf.sprintf "session %d stays put when gamma leaves" s)
        before after
    else incr moved
  done;
  Alcotest.(check bool) "gamma owned something" true (!moved > 0)

let test_peer_of_string () =
  (match Cluster.peer_of_string "alpha=127.0.0.1:7411" with
  | Ok p ->
      Alcotest.(check string) "name" "alpha" p.Cluster.peer_name;
      Alcotest.(check string) "host" "127.0.0.1" p.Cluster.host;
      Alcotest.(check int) "port" 7411 p.Cluster.port
  | Error e -> Alcotest.fail e);
  (match Cluster.peer_of_string ":7411" with
  | Ok p -> Alcotest.(check string) "default host" "127.0.0.1" p.Cluster.host
  | Error e -> Alcotest.fail e);
  (match Cluster.peer_of_string "=127.0.0.1:7411" with
  | Ok _ -> Alcotest.fail "empty node name accepted"
  | Error _ -> ());
  match Cluster.peer_of_string "nonsense" with
  | Ok _ -> Alcotest.fail "bad address accepted"
  | Error _ -> ()

(* --- 2-node cluster vs single-node replay ------------------------------------ *)

let fixture =
  lazy
    (let app =
       {
         Pipeline.name = "svc";
         source =
           {|
             fun main() {
               let db = db_connect("pg");
               let n = atoi(gets());
               for (let i = 0; i < n; i = i + 1) {
                 let r = pq_exec(db, "SELECT name FROM t");
                 let k = pq_ntuples(r);
                 for (let j = 0; j < k; j = j + 1) { printf("%s\n", pq_getvalue(r, j, 0)); }
               }
             }
           |};
         dbms = "PostgreSQL";
         setup_db =
           (fun e ->
             ignore (Sqldb.Engine.exec e "CREATE TABLE t (name)");
             ignore (Sqldb.Engine.exec e "INSERT INTO t VALUES ('a'), ('b')"));
         test_cases =
           List.init 8 (fun i ->
               Runtime.Testcase.make
                 ~input:[ string_of_int (1 + (i mod 4)) ]
                 (Printf.sprintf "c%d" i));
       }
     in
     let ds = Pipeline.collect app in
     (Pipeline.train ds, Pipeline.train_qsig app,
      List.map snd ds.Pipeline.traces))

let cluster_items () =
  let _, _, traces = Lazy.force fixture in
  let rng = Mlkit.Rng.create 23 in
  let stream = Sessions.interleave ~rng traces in
  let foreign =
    (* one intruder session: library calls the profile never saw, so the
       sequence axis must raise incidents *)
    Array.init 20 (fun i ->
        {
          Transport.session = 97;
          event =
            {
              Runtime.Collector.caller = "intruder";
              block = 3;
              symbol = Symbol.Lib { name = Printf.sprintf "evil%d" (i mod 3); label = None; site = None };
            };
        })
  in
  let queries =
    (* normal per-session queries, plus an unknown signature for the
       intruder: the query axis fires on it under Qsig_warn *)
    List.init 8 (fun i ->
        Transport.Query { Transport.q_session = i; rows = 2; sql = "SELECT name FROM t" })
    @ [ Transport.Query { Transport.q_session = 97; rows = 2; sql = "SELECT name, name FROM t" } ]
  in
  Array.concat
    [
      Array.map (fun ev -> Transport.Call ev) (Array.append stream foreign);
      Array.of_list queries;
    ]

let verdict_key (v : Detector.verdict) =
  (v.Detector.flag, Int64.bits_of_float v.Detector.score, v.Detector.unknown_symbol, v.Detector.unknown_pair)

let session_key (r : Daemon.session_report) =
  ( r.Daemon.session,
    r.Daemon.events,
    r.Daemon.windows,
    r.Daemon.worst,
    List.map verdict_key r.Daemon.verdicts,
    r.Daemon.qsig_checks,
    r.Daemon.qsig_anomalies )

let incident_multiset (alerts : Alerts.t) =
  List.sort compare
    (List.map
       (fun (i : Alerts.incident) -> (i.Alerts.session, Alerts.source_to_string i.Alerts.source))
       (Alerts.incidents alerts))

(* --- the router in process: Server.Conn nodes under a seeded scheduler --- *)

let node_names k = List.init k (fun i -> [| "alpha"; "beta"; "gamma"; "delta" |].(i))

let ok what = function Ok v -> v | Error e -> QCheck2.Test.fail_reportf "%s: %s" what e

(* A closed router must not touch its connections again: their
   descriptors are closed and may already belong to someone else. *)
let test_closed_router_refuses () =
  let profile, _, _ = Lazy.force fixture in
  let sim = Sim.create ~seed:1 profile [ "solo" ] in
  Fun.protect ~finally:(fun () -> Sim.stop sim) @@ fun () ->
  let router = ok "connect" (Cluster.Router.over (Sim.link sim) [ "solo" ]) in
  Cluster.Router.close router;
  let calls = sim.Sim.calls in
  Alcotest.(check bool) "close hung up" true ((Sim.find sim "solo").Sim.conn = None);
  (match Cluster.Router.metrics router with
  | Ok _ -> Alcotest.fail "metrics answered after close"
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%S names the closed router" e)
        true
        (contains ~needle:"router already finished" e));
  Alcotest.(check int) "no link call after close" calls sim.Sim.calls

(* The cluster stream, with queries the nodes' off query axis ingests
   for free slipped in at random: some a few KiB, so several 32 KiB
   batches go out while items are still being routed, and the rest a
   few bytes; [acked] makes them enough (past 4,096) for a lone node to
   ack. *)
let sim_items ?(acked = false) st =
  let calls = cluster_items () in
  let sessions = [| 0; 1; 2; 3; 4; 5; 6; 7; 97 |] in
  let filler () =
    let pad = if Random.State.int st 8 = 0 then 512 + Random.State.int st 1536 else Random.State.int st 8 in
    Transport.Query
      { Transport.q_session = sessions.(Random.State.int st (Array.length sessions));
        rows = Random.State.int st 5; sql = String.make pad 'x' }
  in
  let fillers = if acked then 4096 + Random.State.int st 1024 else Random.State.int st 1200 in
  let out = ref [] and i = ref 0 and f = ref 0 in
  while !i < Array.length calls || !f < fillers do
    if !f < fillers && (!i = Array.length calls || Random.State.int st (Array.length calls + fillers) < fillers)
    then begin
      out := filler () :: !out;
      incr f
    end
    else begin
      out := calls.(!i) :: !out;
      incr i
    end
  done;
  Array.of_list (List.rev !out)

(* A router over 1-4 nodes in process: the scheduler picks write and
   read sizes from 1 B to 64 KiB, which nodes move and in what order,
   and, while items are being routed, up to two node hang-ups, after
   each of which the router redials. The merged summaries must equal
   Replay.run over exactly the items the nodes ingested, and the lost
   count must be exactly what broken connections took down unacked: 0
   without a hang-up, and otherwise enough that ingested + lost >=
   routed. *)
let prop_cluster_simulation =
  QCheck2.Test.make ~name:"simulated cluster = Replay.run" ~count:40
    ~print:(fun (k, seed) -> Printf.sprintf "%d nodes, seed %d" k seed)
    QCheck2.Gen.(pair (int_range 1 4) (int_bound 1_000_000))
    (fun (k, seed) ->
      let profile, _, _ = Lazy.force fixture in
      let names = node_names k in
      let sim = Sim.create ~seed profile names in
      Fun.protect ~finally:(fun () -> Sim.stop sim) @@ fun () ->
      let items = sim_items ~acked:(k = 1 && Random.State.bool sim.Sim.st) sim.Sim.st in
      let hangups = Random.State.int sim.Sim.st 3 in
      sim.Sim.hangups <- hangups;
      let router = ok "connect" (Cluster.Router.over (Sim.link sim) names) in
      sim.Sim.routing <- true;
      ok "send" (Cluster.Router.send_stream router items);
      sim.Sim.routing <- false;
      if Random.State.bool sim.Sim.st then ignore (ok "metrics" (Cluster.Router.metrics router));
      let summaries = ok "finish" (Cluster.Router.finish router) in
      let lost = Cluster.Router.lost_items router and hung = hangups - sim.Sim.hangups in
      if hung = 0 && lost <> 0 then QCheck2.Test.fail_reportf "%d items lost with no hang-up" lost;
      if lost <> Sim.lost sim items then
        QCheck2.Test.fail_reportf "%d items counted lost over %d hang-ups, %d taken down unacked" lost
          hung (Sim.lost sim items);
      let ingested = Sim.ingested sim in
      if Array.length ingested + lost < Array.length items then
        QCheck2.Test.fail_reportf "%d ingested + %d lost < %d routed" (Array.length ingested) lost
          (Array.length items);
      Sim.check_replay profile (Cluster.merge summaries) ingested;
      true)

let frame_bytes f =
  let enc = Frame.Encoder.create () and buf = Buffer.create 64 in
  Frame.Encoder.add enc buf f;
  Frame.Encoder.flush enc buf;
  Buffer.contents buf

type fault_kind = Truncate | Corrupt | Call | Early_summary

let fault_name = function
  | Truncate -> "truncated" | Corrupt -> "corrupted" | Call -> "a call frame"
  | Early_summary -> "a summary before bye"

(* Node bytes the router must refuse without raising: cut short (the
   node hangs up mid-frame), one byte flipped, or a frame it never
   expects from a node (a Call, or a Summary before any Bye). Every
   operation returns Ok or an Error that starts with a node's name, and
   an unexpected frame that reached the router makes one of them an
   Error naming that node. *)
let prop_router_totality =
  QCheck2.Test.make ~name:"bad node bytes: router errors name the node" ~count:40
    ~print:(fun (k, kind, victim, after, seed) ->
      Printf.sprintf "%d nodes, %s from node %d after %d reads, seed %d" k (fault_name kind)
        victim after seed)
    QCheck2.Gen.(
      let* k = int_range 1 3 in
      map4
        (fun kind victim after seed -> (k, kind, victim, after, seed))
        (oneofl [ Truncate; Corrupt; Call; Early_summary ])
        (int_bound (k - 1)) (int_bound 3) (int_bound 1_000_000))
    (fun (k, kind, victim, after, seed) ->
      let profile, _, _ = Lazy.force fixture in
      let names = node_names k and victim = List.nth (node_names k) victim in
      let sim = Sim.create ~seed profile names in
      Fun.protect ~finally:(fun () -> Sim.stop sim) @@ fun () ->
      let items = sim_items sim.Sim.st in
      let fault =
        match kind with
        | Truncate -> Sim.Truncate
        | Corrupt -> Sim.Corrupt
        | Call ->
            Sim.Inject
              (frame_bytes
                 (Frame.Call
                    { Transport.session = 5;
                      event = { Runtime.Collector.caller = "main"; block = 1; symbol = Symbol.Entry } }))
        | Early_summary ->
            Sim.Inject
              (frame_bytes
                 (Frame.Summary
                    { Frame.node = victim;
                      summary =
                        { Daemon.sessions = []; shed = []; events_offered = 0; events_ingested = 0;
                          events_dropped = 0 };
                      incidents = [];
                      fused = [] }))
      in
      sim.Sim.fault <- Some (victim, after, fault);
      let named = ref [] in
      let run what r =
        match r () with
        | Ok _ -> ()
        | Error e -> (
            let names_node n =
              String.starts_with ~prefix:(n ^ ":") e || String.starts_with ~prefix:(n ^ " (") e
            in
            match List.find_opt names_node names with
            | Some n -> named := n :: !named
            | None -> QCheck2.Test.fail_reportf "%s: %S names no node" what e)
        | exception e -> QCheck2.Test.fail_reportf "%s raised %s" what (Printexc.to_string e)
      in
      sim.Sim.routing <- true;
      let router = ref None in
      run "connect" (fun () ->
          Result.map (fun r -> router := Some r) (Cluster.Router.over (Sim.link sim) names));
      Option.iter
        (fun router ->
          run "send" (fun () -> Cluster.Router.send_stream router items);
          run "health" (fun () -> Cluster.Router.health router);
          run "metrics" (fun () -> Cluster.Router.metrics router);
          sim.Sim.routing <- false;
          run "finish" (fun () -> Cluster.Router.finish router))
        !router;
      (match kind with
      | (Call | Early_summary) when sim.Sim.fired && not (List.mem victim !named) ->
          QCheck2.Test.fail_reportf "%s from %s reached the router, and no operation failed"
            (fault_name kind) victim
      | _ -> ());
      true)

let test_two_node_cluster_matches_single () =
  let profile, qsig_profile, _ = Lazy.force fixture in
  let items = cluster_items () in
  (* Fork the nodes FIRST: a process that has ever spawned domains must
     not fork, and the single-node reference replay spawns domains. *)
  Cluster.with_local [ "alpha"; "beta" ]
    (fun name socket ->
      ignore
        (Server.serve ~socket ~name ~shards:2 ~qsig_mode:Daemon.Qsig_warn ~qsig_profile
           profile))
  @@ fun nodes ->
  let a = List.nth nodes 0 and b = List.nth nodes 1 in
  let peers =
    [
      { Cluster.peer_name = "alpha"; host = "127.0.0.1"; port = a.Cluster.port };
      { Cluster.peer_name = "beta"; host = "127.0.0.1"; port = b.Cluster.port };
    ]
  in
  let dump, lost, summaries =
    match Cluster.Router.connect peers with
    | Error e -> Alcotest.failf "connect: %s" e
    | Ok router -> (
        (match Cluster.Router.send_stream router items with
        | Ok () -> ()
        | Error e -> Alcotest.failf "send: %s" e);
        let dump = Cluster.Router.metrics router in
        let lost = Cluster.Router.lost_items router in
        match Cluster.Router.finish router with
        | Error e -> Alcotest.failf "finish: %s" e
        | Ok summaries -> (dump, lost, summaries))
  in
  Cluster.wait_local a;
  Cluster.wait_local b;
  Alcotest.(check int) "no items lost" 0 lost;
  Alcotest.(check int) "two summaries" 2 (List.length summaries);
  (match dump with
  | Ok dump ->
      Alcotest.(check bool) "aggregated metrics carry ingest totals" true
        (contains ~needle:"adprom_events_ingested_total" dump);
      Alcotest.(check bool) "aggregated metrics are an exposition" true
        (contains ~needle:"# TYPE adprom_events_ingested_total counter" dump);
      let ingested =
        List.find_map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ "adprom_events_ingested_total"; v ] -> int_of_string_opt v
            | _ -> None)
          (String.split_on_char '\n' dump)
      in
      (* the counter counts call events; queries go to the query axis *)
      let calls =
        Array.fold_left
          (fun n -> function Transport.Call _ -> n + 1 | Transport.Query _ -> n)
          0 items
      in
      Alcotest.(check (option int)) "fleet ingest total = call items sent"
        (Some calls) ingested
  | Error e -> Alcotest.failf "metrics: %s" e);
  let merged = Cluster.merge summaries in
  (* now the reference: the same items through one local daemon *)
  let single =
    Replay.run
      (Daemon.create ~shards:2 ~qsig_mode:Daemon.Qsig_warn ~qsig_profile profile)
      items
  in
  let s = single.Replay.summary in
  let m = merged.Frame.summary in
  (* the ring actually spread the sessions: both nodes saw work *)
  List.iter
    (fun ns ->
      Alcotest.(check bool)
        (Printf.sprintf "node %s got sessions" ns.Frame.node)
        true
        (ns.Frame.summary.Daemon.sessions <> []))
    summaries;
  Alcotest.(check int) "events ingested" s.Daemon.events_ingested m.Daemon.events_ingested;
  Alcotest.(check int) "events offered" s.Daemon.events_offered m.Daemon.events_offered;
  Alcotest.(check int) "events dropped" s.Daemon.events_dropped m.Daemon.events_dropped;
  Alcotest.(check bool) "nothing shed" true (s.Daemon.shed = [] && m.Daemon.shed = []);
  (* per-session reports, verdict scores compared as IEEE-754 bits *)
  Alcotest.(check bool) "session reports bit-for-bit equal" true
    (List.map session_key s.Daemon.sessions = List.map session_key m.Daemon.sessions);
  (* the intruder was caught on both paths *)
  Alcotest.(check bool) "intruder flagged" true
    (List.exists
       (fun (r : Daemon.session_report) ->
         r.Daemon.session = 97
         && (r.Daemon.worst = Detector.Out_of_context || r.Daemon.worst = Detector.Data_leak))
       m.Daemon.sessions);
  (* incident log: same (session, payload) multiset — seq numbers and
     timestamps are per-node and excluded by construction *)
  Alcotest.(check bool) "incident multiset equal" true
    (incident_multiset single.Replay.alerts
    = List.sort compare merged.Frame.incidents);
  Alcotest.(check bool) "incidents exist" true (merged.Frame.incidents <> []);
  (* fused axes per session *)
  let single_fused =
    List.sort compare
      (List.map
         (fun (r : Daemon.session_report) ->
           (r.Daemon.session, Alerts.fused_axes single.Replay.alerts ~session:r.Daemon.session))
         s.Daemon.sessions)
  in
  Alcotest.(check bool) "fused axes equal" true
    (single_fused = List.sort compare merged.Frame.fused);
  Alcotest.(check bool) "intruder fused both axes" true
    (List.assoc_opt 97 merged.Frame.fused = Some Alerts.Both_axes)

let () =
  Alcotest.run "cluster"
    [
      (* the one case that forks nodes comes first: the in-process
         cases below spawn daemon domains, after which no process may
         fork *)
      ( "cluster",
        [
          Alcotest.test_case "2 nodes = 1 node, bit for bit" `Quick
            test_two_node_cluster_matches_single;
        ] );
      ( "binary codec",
        [
          QCheck_alcotest.to_alcotest prop_binary_roundtrip_chunked;
          QCheck_alcotest.to_alcotest prop_truncated_never_raises;
          QCheck_alcotest.to_alcotest prop_corrupt_never_raises;
          Alcotest.test_case "control frames round-trip" `Quick test_control_frames;
          Alcotest.test_case "score bits survive the wire" `Quick test_score_bits_survive;
          Alcotest.test_case "structured decode errors" `Quick test_decode_errors_are_structured;
          Alcotest.test_case "format autodetection" `Quick test_detect;
          Alcotest.test_case "other wire versions refused" `Quick
            test_other_versions_refused;
          Alcotest.test_case "unassigned frame tags refused" `Quick
            test_unassigned_tags_refused;
          Alcotest.test_case "event cache bounded" `Quick test_binary_cache_bounded;
          Alcotest.test_case "repeated events shared" `Quick test_binary_repeats_shared;
        ] );
      ( "transport",
        [
          Alcotest.test_case "negative row counts rejected" `Quick test_negative_rows_rejected;
          Alcotest.test_case "negative binary varints rejected" `Quick
            test_negative_varints_rejected;
          Alcotest.test_case "text byte-at-a-time feed" `Quick test_text_chunked_feed;
          Alcotest.test_case "text partial line is capped" `Quick test_text_line_cap;
        ] );
      ( "ring",
        [
          Alcotest.test_case "deterministic" `Quick test_ring_deterministic;
          Alcotest.test_case "balanced" `Quick test_ring_balance;
          Alcotest.test_case "minimal remap" `Quick test_ring_minimal_remap;
          Alcotest.test_case "peer addresses" `Quick test_peer_of_string;
        ] );
      ( "router",
        [
          Alcotest.test_case "closed router refuses metrics" `Quick
            test_closed_router_refuses;
          QCheck_alcotest.to_alcotest prop_cluster_simulation;
          QCheck_alcotest.to_alcotest prop_router_totality;
        ] );
    ]
