module Trace_io = Runtime.Trace_io
module Symbol = Analysis.Symbol

let protocol_version = 2
let magic = "\xad\x51"
let max_payload = Transport.max_item_bytes

type node_summary = {
  node : string;
  summary : Daemon.summary;
  incidents : (int * string) list;
  fused : (int * Alerts.fused) list;
}

type health = {
  h_node : string;
  h_status : Health.status;
  h_snapshot : Metrics.snapshot;
  h_incidents : (int * string) list;
  h_uptime_s : float;
}

type frame =
  | Hello of { peer : string; sample : (int64 * int64) option }
  | Ack of { count : int }
  | Call of Transport.event
  | Query of Transport.query
  | Bye
  | Summary of node_summary
  | Clock_probe of { seq : int }
  | Clock_reply of { seq : int; mono_ns : int64; wall_ns : int64 }
  | Trace_mark of { trace_id : int; send_mono_ns : int64; offset_ns : int64 }
  | Health_req
  | Health_resp of health
  | Spans_req
  | Spans_resp of Adprom_obs.Trace.span list

type error =
  | Bad_magic of { byte0 : int; byte1 : int }
  | Bad_version of int
  | Bad_frame_type of int
  | Frame_too_large of { length : int; limit : int }
  | Bad_payload of { frame : string; reason : string }
  | Truncated of { pending : int }

let error_to_string = function
  | Bad_magic { byte0; byte1 } ->
      Printf.sprintf "bad magic 0x%02x 0x%02x (not an adprom binary stream)"
        byte0 byte1
  | Bad_version v ->
      Printf.sprintf "unsupported protocol version %d (this build speaks %d)" v
        protocol_version
  | Bad_frame_type t -> Printf.sprintf "unknown frame type %d" t
  | Frame_too_large { length; limit } ->
      Printf.sprintf "frame payload of %d bytes exceeds the %d-byte limit"
        length limit
  | Bad_payload { frame; reason } ->
      Printf.sprintf "malformed %s frame: %s" frame reason
  | Truncated { pending } ->
      Printf.sprintf "truncated stream: %d byte(s) of an incomplete frame"
        pending

let tag_of_frame = function
  | Hello _ -> 0
  | Ack _ -> 1
  | Call _ -> 2
  | Query _ -> 3
  | Bye -> 6
  | Summary _ -> 7
  | Clock_probe _ -> 8
  | Clock_reply _ -> 9
  | Trace_mark _ -> 10
  | Health_req -> 11
  | Health_resp _ -> 12
  | Spans_req -> 13
  | Spans_resp _ -> 14

(* 4 and 5 are retired, not reused: a frame from a build that still
   sends them must be refused, not decoded as some other kind *)
let[@inline] unassigned tag = tag > 14 || tag = 4 || tag = 5

let frame_name_of_tag = function
  | 0 -> "hello"
  | 1 -> "ack"
  | 2 -> "call"
  | 3 -> "query"
  | 6 -> "bye"
  | 7 -> "summary"
  | 8 -> "clock-probe"
  | 9 -> "clock-reply"
  | 10 -> "trace-mark"
  | 11 -> "health-req"
  | 12 -> "health-resp"
  | 13 -> "spans-req"
  | 14 -> "spans-resp"
  | _ -> "unknown"

let frame_name f = frame_name_of_tag (tag_of_frame f)

(* ------------------------------------------------------------------ *)
(* primitive writers — frames are staged in a resizable [bytes] with
   unsafe single-byte stores and blitted into the caller's Buffer in
   one piece. The hot path writes millions of ten-byte frames;
   Buffer's per-char dispatch plus the old stage-then-copy were the
   dominant encode cost. *)

type writer = { mutable wbuf : Bytes.t; mutable wpos : int }

let writer_need w extra =
  let total = w.wpos + extra in
  if total > Bytes.length w.wbuf then begin
    let cap = ref (2 * Bytes.length w.wbuf) in
    while total > !cap do
      cap := 2 * !cap
    done;
    let b = Bytes.create !cap in
    Bytes.blit w.wbuf 0 b 0 w.wpos;
    w.wbuf <- b
  end

let add_u8 w v =
  writer_need w 1;
  Bytes.unsafe_set w.wbuf w.wpos (Char.unsafe_chr v);
  w.wpos <- w.wpos + 1

let add_varint w n =
  (* LEB128 over the int's 63 bits; [lsr] terminates for any input *)
  writer_need w 9;
  let b = w.wbuf in
  let p = ref w.wpos in
  let n = ref n in
  while !n land lnot 0x7f <> 0 do
    Bytes.unsafe_set b !p (Char.unsafe_chr (!n land 0x7f lor 0x80));
    incr p;
    n := !n lsr 7
  done;
  Bytes.unsafe_set b !p (Char.unsafe_chr !n);
  w.wpos <- !p + 1

let add_zigzag w n = add_varint w ((n lsl 1) lxor (n asr 62))

let add_str w s =
  let len = String.length s in
  add_varint w len;
  writer_need w len;
  Bytes.blit_string s 0 w.wbuf w.wpos len;
  w.wpos <- w.wpos + len

let add_opt_int w = function None -> add_u8 w 0 | Some v -> add_varint w (v + 1)
let add_bool w b = add_u8 w (if b then 1 else 0)

let add_fixed64 w bits =
  writer_need w 8;
  let b = w.wbuf and p = w.wpos in
  for i = 0 to 7 do
    Bytes.unsafe_set b (p + i)
      (Char.unsafe_chr (Int64.to_int (Int64.shift_right_logical bits (i * 8)) land 0xff))
  done;
  w.wpos <- p + 8

let add_flag w (f : Adprom.Detector.flag) =
  add_u8 w
    (match f with Normal -> 0 | Anomalous -> 1 | Data_leak -> 2 | Out_of_context -> 3)

let add_fused w (f : Alerts.fused) =
  add_u8 w
    (match f with No_alarm -> 0 | Sequence_only -> 1 | Query_only -> 2 | Both_axes -> 3)

let add_verdict buf (v : Adprom.Detector.verdict) =
  add_flag buf v.flag;
  add_fixed64 buf (Int64.bits_of_float v.score);
  add_bool buf v.unknown_symbol;
  match v.unknown_pair with
  | None -> add_bool buf false
  | Some (caller, sym) ->
      add_bool buf true;
      add_str buf caller;
      add_str buf (Trace_io.encode_symbol sym)

(* ------------------------------------------------------------------ *)
(* primitive readers — total: every failure raises the local [Fail],
   which the frame loop turns into [Bad_payload] *)

exception Fail of string

type cursor = { mutable cbuf : string; mutable p : int; mutable cstop : int }

let u8 c =
  if c.p >= c.cstop then raise (Fail "unexpected end of payload")
  else begin
    let v = Char.code c.cbuf.[c.p] in
    c.p <- c.p + 1;
    v
  end

let varint c =
  let b = u8 c in
  if b < 0x80 then b (* the overwhelmingly common single-byte case *)
  else begin
    let rec go shift acc =
      if shift > 56 then raise (Fail "varint too long")
      else begin
        let b = u8 c in
        let acc = acc lor ((b land 0x7f) lsl shift) in
        if b land 0x80 = 0 then acc else go (shift + 7) acc
      end
    in
    go 7 (b land 0x7f)
  end

let zigzag c =
  let z = varint c in
  (z lsr 1) lxor (-(z land 1))

let bytes c n =
  if n < 0 || n > c.cstop - c.p then raise (Fail "string length out of range")
  else begin
    let s = String.sub c.cbuf c.p n in
    c.p <- c.p + n;
    s
  end

let str c = bytes c (varint c)

(* A 9-byte varint can spill into the sign bit and decode to a negative
   OCaml int. Fields that are counts or ids (everything but zigzagged
   blocks) must reject those, or crafted binary input smuggles values
   the encoder itself refuses — e.g. a negative row count skewing the
   qsig bands. *)
let nonneg c what =
  let v = varint c in
  if v < 0 then raise (Fail ("negative " ^ what)) else v

let opt_int c =
  match varint c with
  | 0 -> None
  | v when v > 0 -> Some (v - 1)
  | _ -> raise (Fail "negative optional int")

let bool c =
  match u8 c with
  | 0 -> false
  | 1 -> true
  | b -> raise (Fail (Printf.sprintf "bad boolean byte %d" b))

let fixed64 c =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (u8 c)) (i * 8))
  done;
  !bits

let flag c : Adprom.Detector.flag =
  match u8 c with
  | 0 -> Normal
  | 1 -> Anomalous
  | 2 -> Data_leak
  | 3 -> Out_of_context
  | b -> raise (Fail (Printf.sprintf "bad verdict flag %d" b))

let fused c : Alerts.fused =
  match u8 c with
  | 0 -> No_alarm
  | 1 -> Sequence_only
  | 2 -> Query_only
  | 3 -> Both_axes
  | b -> raise (Fail (Printf.sprintf "bad fused-axes tag %d" b))

let verdict c : Adprom.Detector.verdict =
  let flag = flag c in
  let score = Int64.float_of_bits (fixed64 c) in
  let unknown_symbol = bool c in
  let unknown_pair =
    if not (bool c) then None
    else begin
      let caller = str c in
      match Trace_io.decode_symbol (str c) with
      | Ok sym -> Some (caller, sym)
      | Error e -> raise (Fail (Printf.sprintf "bad symbol in verdict: %s" e))
    end
  in
  { flag; score; unknown_symbol; unknown_pair }

let read_list c f =
  let n = varint c in
  (* every element costs at least one byte, so the remaining payload
     bounds a well-formed length — rejects absurd counts up front *)
  if n < 0 || n > c.cstop - c.p then raise (Fail "list length out of range")
  else begin
    let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (f c :: acc) in
    go n []
  end

(* ------------------------------------------------------------------ *)

module Encoder = struct
  type t = {
    interned : (string, int) Hashtbl.t;
    cache : string array;  (* direct-mapped accelerator in front of the
                              Hashtbl: the stream re-emits the same few
                              dozen caller/symbol strings forever, and a
                              physical-equality probe beats hashing them
                              on every single frame *)
    cache_idx : int array;
    mutable next : int;
    w : writer;  (* staged frames, header slots included, so each length
                    prefix is patched in place — no second copy *)
    mutable fstart : int;  (* where the frame being built starts in [w] *)
  }

  let cache_slots = 512 (* power of two; a stream carries a few dozen
                           distinct strings, so collisions — which send
                           every hit on the colliding pair through the
                           Hashtbl — want headroom, not snugness *)

  (* Frames accumulate in the writer and move to the caller's Buffer in
     batches: one [Buffer.add_subbytes] per ~4 KiB instead of one per
     ten-byte call frame. [flush] drains the remainder — the transport
     contract requires it before the buffer's bytes are used. *)
  let stage_limit = 4096

  let create () =
    { interned = Hashtbl.create 64;
      cache = Array.make cache_slots "";
      cache_idx = Array.make cache_slots 0;
      next = 0;
      w = { wbuf = Bytes.create (2 * stage_limit); wpos = 0 };
      fstart = 0 }

  let flush e out =
    let w = e.w in
    if w.wpos > 0 then begin
      Buffer.add_subbytes out w.wbuf 0 w.wpos;
      w.wpos <- 0
    end

  let slot_of s =
    (* a hash cheap enough to lose to nothing: length, boundary and
       middle chars; collisions just fall through to the Hashtbl *)
    let n = String.length s in
    (n
    + (Char.code (String.unsafe_get s 0) lsl 2)
    + (Char.code (String.unsafe_get s (n - 1)) lsl 4)
    + (Char.code (String.unsafe_get s (n lsr 1)) lsl 1))
    land (cache_slots - 1)

  let add_strref e s =
    (* the empty string has no slot: it would match the cache's filler *)
    let slot = if String.length s = 0 then -1 else slot_of s in
    if slot >= 0 && String.equal (Array.unsafe_get e.cache slot) s then
      add_varint e.w (Array.unsafe_get e.cache_idx slot + 1)
    else begin
      let i =
        match Hashtbl.find_opt e.interned s with
        | Some i ->
            add_varint e.w (i + 1);
            i
        | None ->
            let i = e.next in
            Hashtbl.add e.interned s i;
            e.next <- i + 1;
            add_u8 e.w 0;
            add_str e.w s;
            i
      in
      if slot >= 0 then begin
        Array.unsafe_set e.cache slot s;
        Array.unsafe_set e.cache_idx slot i
      end
    end

  let add_symbol e (sym : Symbol.t) =
    match sym with
    | Entry -> add_u8 e.w 0
    | Exit -> add_u8 e.w 1
    | Func name ->
        add_u8 e.w 2;
        add_strref e name
    | Lib { name; label; site } ->
        add_u8 e.w 3;
        add_strref e name;
        add_opt_int e.w label;
        add_opt_int e.w site

  let begin_frame e =
    (* reserve the header slot after whatever is already staged *)
    writer_need e.w 8;
    e.fstart <- e.w.wpos;
    e.w.wpos <- e.w.wpos + 8

  let end_frame e out tag =
    let w = e.w in
    let fs = e.fstart in
    let len = w.wpos - fs - 8 in
    if len > max_payload then begin
      w.wpos <- fs; (* drop the staged frame: the stream must stay whole *)
      invalid_arg
        (Printf.sprintf "Frame.Encoder.add: %s payload of %d bytes exceeds %d"
           (frame_name_of_tag tag) len max_payload)
    end;
    let b = w.wbuf in
    Bytes.unsafe_set b fs magic.[0];
    Bytes.unsafe_set b (fs + 1) magic.[1];
    Bytes.unsafe_set b (fs + 2) (Char.unsafe_chr protocol_version);
    Bytes.unsafe_set b (fs + 3) (Char.unsafe_chr tag);
    Bytes.unsafe_set b (fs + 4) (Char.unsafe_chr (len lsr 24 land 0xff));
    Bytes.unsafe_set b (fs + 5) (Char.unsafe_chr (len lsr 16 land 0xff));
    Bytes.unsafe_set b (fs + 6) (Char.unsafe_chr (len lsr 8 land 0xff));
    Bytes.unsafe_set b (fs + 7) (Char.unsafe_chr (len land 0xff));
    if w.wpos >= stage_limit then flush e out

  (* the item hot path, shared by [add] and {!T.encode} *)

  let add_call_slow e out { Transport.session; event } =
    begin_frame e;
    add_varint e.w session;
    add_strref e event.Runtime.Collector.caller;
    add_zigzag e.w event.Runtime.Collector.block;
    add_symbol e event.Runtime.Collector.symbol;
    end_frame e out 2

  (* [put_varint b p n] writes at [p] (capacity pre-checked) and
     returns the next position — position-passing instead of a ref so
     nothing escapes to the heap *)
  let put_varint b p n =
    if n land lnot 0x7f = 0 then begin
      Bytes.unsafe_set b p (Char.unsafe_chr n);
      p + 1
    end
    else begin
      let p = ref p and n = ref n in
      while !n land lnot 0x7f <> 0 do
        Bytes.unsafe_set b !p (Char.unsafe_chr (!n land 0x7f lor 0x80));
        incr p;
        n := !n lsr 7
      done;
      Bytes.unsafe_set b !p (Char.unsafe_chr !n);
      !p + 1
    end

  let put_opt b p = function
    | None ->
        Bytes.unsafe_set b p '\000';
        p + 1
    | Some v -> put_varint b p (v + 1)

  (* Fused fast path: when every string of the frame is an interning
     cache hit (the steady state — the Collector re-emits the same few
     dozen strings forever) the whole frame is written with one
     capacity check and inline varints, no interning-table mutation.
     Any miss falls back to the generic writers above, which also
     maintain the tables. Worst fused payload: 6 varints (9 bytes
     each) + 1 tag byte = 55, plus the 8-byte header — the single
     [writer_need w 64] covers it. *)
  let cached_ref e s =
    if String.length s = 0 then -1
    else begin
      let slot = slot_of s in
      if String.equal (Array.unsafe_get e.cache slot) s then
        Array.unsafe_get e.cache_idx slot + 1
      else -1
    end

  let add_call e out ({ Transport.session; event } as ev) =
    if session < 0 then invalid_arg "Frame.Encoder.add: negative session id";
    let cref = cached_ref e event.Runtime.Collector.caller in
    if cref < 0 then add_call_slow e out ev
    else begin
      let w = e.w in
      writer_need w 64;
      let b = w.wbuf in
      let block = event.Runtime.Collector.block in
      e.fstart <- w.wpos;
      let p = put_varint b (w.wpos + 8) session in
      let p = put_varint b p cref in
      let p = put_varint b p ((block lsl 1) lxor (block asr 62)) in
      match event.Runtime.Collector.symbol with
      | Entry ->
          Bytes.unsafe_set b p '\000';
          w.wpos <- p + 1;
          end_frame e out 2
      | Exit ->
          Bytes.unsafe_set b p '\001';
          w.wpos <- p + 1;
          end_frame e out 2
      | Func name ->
          let nref = cached_ref e name in
          if nref < 0 then add_call_slow e out ev
          else begin
            Bytes.unsafe_set b p '\002';
            w.wpos <- put_varint b (p + 1) nref;
            end_frame e out 2
          end
      | Lib { name; label; site } ->
          let nref = cached_ref e name in
          if nref < 0 then add_call_slow e out ev
          else begin
            Bytes.unsafe_set b p '\003';
            let p = put_varint b (p + 1) nref in
            let p = put_opt b p label in
            let p = put_opt b p site in
            w.wpos <- p;
            end_frame e out 2
          end
    end

  let add_query e out { Transport.q_session; rows; sql } =
    if q_session < 0 then invalid_arg "Frame.Encoder.add: negative session id";
    if rows < 0 then invalid_arg "Frame.Encoder.add: negative row count";
    begin_frame e;
    add_varint e.w q_session;
    add_varint e.w rows;
    add_str e.w sql;
    end_frame e out 3

  let add_snapshot buf (s : Metrics.snapshot) =
    add_varint buf (List.length s.Metrics.counters);
    List.iter
      (fun (name, v) ->
        add_str buf name;
        add_varint buf v)
      s.Metrics.counters;
    add_varint buf (List.length s.Metrics.gauges);
    List.iter
      (fun (name, v, hwm) ->
        add_str buf name;
        add_zigzag buf v;
        add_zigzag buf hwm)
      s.Metrics.gauges;
    add_varint buf (List.length s.Metrics.histograms);
    List.iter
      (fun (hs : Metrics.hist_snapshot) ->
        add_str buf hs.Metrics.hs_name;
        add_varint buf (Array.length hs.Metrics.hs_bounds);
        Array.iter
          (fun b -> add_fixed64 buf (Int64.bits_of_float b))
          hs.Metrics.hs_bounds;
        (* buckets length is bounds + 1 by construction, so implied *)
        Array.iter (fun n -> add_varint buf n) hs.Metrics.hs_buckets;
        add_fixed64 buf (Int64.bits_of_float hs.Metrics.hs_sum);
        add_varint buf hs.Metrics.hs_count)
      s.Metrics.histograms

  let add_span buf (sp : Adprom_obs.Trace.span) =
    add_str buf sp.Adprom_obs.Trace.name;
    add_varint buf sp.Adprom_obs.Trace.trace_id;
    add_varint buf sp.Adprom_obs.Trace.span_id;
    add_opt_int buf sp.Adprom_obs.Trace.parent;
    add_varint buf sp.Adprom_obs.Trace.domain;
    add_fixed64 buf sp.Adprom_obs.Trace.start_ns;
    add_fixed64 buf sp.Adprom_obs.Trace.dur_ns;
    add_varint buf (List.length sp.Adprom_obs.Trace.attrs);
    List.iter
      (fun (k, v) ->
        add_str buf k;
        add_str buf v)
      sp.Adprom_obs.Trace.attrs

  let encode_payload e = function
    | Call _ | Query _ -> assert false (* [add] dispatches those *)
    | Hello { peer; sample } -> (
        add_str e.w peer;
        match sample with
        | None -> add_bool e.w false
        | Some (mono_ns, wall_ns) ->
            add_bool e.w true;
            add_fixed64 e.w mono_ns;
            add_fixed64 e.w wall_ns)
    | Ack { count } -> add_varint e.w count
    | Bye | Health_req | Spans_req -> ()
    | Clock_probe { seq } -> add_varint e.w seq
    | Clock_reply { seq; mono_ns; wall_ns } ->
        add_varint e.w seq;
        add_fixed64 e.w mono_ns;
        add_fixed64 e.w wall_ns
    | Trace_mark { trace_id; send_mono_ns; offset_ns } ->
        add_varint e.w trace_id;
        add_fixed64 e.w send_mono_ns;
        add_fixed64 e.w offset_ns
    | Health_resp { h_node; h_status; h_snapshot; h_incidents; h_uptime_s } ->
        let buf = e.w in
        add_str buf h_node;
        add_u8 buf (Health.status_to_int h_status);
        add_fixed64 buf (Int64.bits_of_float h_uptime_s);
        add_snapshot buf h_snapshot;
        add_varint buf (List.length h_incidents);
        List.iter
          (fun (s, text) ->
            add_varint buf s;
            add_str buf text)
          h_incidents
    | Spans_resp spans ->
        add_varint e.w (List.length spans);
        List.iter (add_span e.w) spans
    | Summary { node; summary; incidents; fused = fu } ->
        let buf = e.w in
        add_str buf node;
        add_varint buf summary.Daemon.events_offered;
        add_varint buf summary.Daemon.events_ingested;
        add_varint buf summary.Daemon.events_dropped;
        add_varint buf (List.length summary.Daemon.sessions);
        List.iter
          (fun (r : Daemon.session_report) ->
            add_varint buf r.session;
            add_varint buf r.events;
            add_varint buf r.windows;
            add_flag buf r.worst;
            add_varint buf (List.length r.verdicts);
            List.iter (add_verdict buf) r.verdicts;
            add_varint buf r.qsig_checks;
            add_varint buf r.qsig_anomalies)
          summary.Daemon.sessions;
        add_varint buf (List.length summary.Daemon.shed);
        List.iter
          (fun (s, dropped, discarded) ->
            add_varint buf s;
            add_varint buf dropped;
            add_varint buf discarded)
          summary.Daemon.shed;
        add_varint buf (List.length incidents);
        List.iter
          (fun (s, text) ->
            add_varint buf s;
            add_str buf text)
          incidents;
        add_varint buf (List.length fu);
        List.iter
          (fun (s, f) ->
            add_varint buf s;
            add_fused buf f)
          fu

  let add e out frame =
    match frame with
    | Call ev -> add_call e out ev
    | Query q -> add_query e out q
    | _ ->
        begin_frame e;
        encode_payload e frame;
        end_frame e out (tag_of_frame frame)
end

module Decoder = struct
  type t = {
    pending : Buffer.t;  (* at most one incomplete frame *)
    mutable interned : string array;
    mutable interned_len : int;
    mutable dead : error option;
    mutable paused : bool;  (* [pause] was called during this feed *)
    events : Runtime.Collector.Cache.t;  (* repeated events decode to one record *)
  }

  let create () =
    { pending = Buffer.create 256; interned = [||]; interned_len = 0; dead = None;
      paused = false; events = Runtime.Collector.Cache.create () }

  let pause d = d.paused <- true

  (* The table's memory is bounded by the bytes the peer actually sent
     (an inline definition costs its full length on the wire), so no
     separate cap is needed. *)
  let intern_push d s =
    if d.interned_len = Array.length d.interned then begin
      let a = Array.make (max 16 (2 * d.interned_len)) "" in
      Array.blit d.interned 0 a 0 d.interned_len;
      d.interned <- a
    end;
    d.interned.(d.interned_len) <- s;
    d.interned_len <- d.interned_len + 1

  (* the table index of the string reference at the cursor *)
  let strref d c =
    match varint c with
    | 0 ->
        intern_push d (str c);
        d.interned_len - 1
    | k when k > 0 && k - 1 < d.interned_len -> k - 1
    (* a negative reference (9-byte varint into the sign bit) must land
       here, not index the array with a negative offset *)
    | k -> raise (Fail (Printf.sprintf "string reference %d out of range" k))

  let read_snapshot c =
    let counters =
      read_list c (fun c ->
          let name = str c in
          let v = nonneg c "counter value" in
          (name, v))
    in
    let gauges =
      read_list c (fun c ->
          let name = str c in
          let v = zigzag c in
          let hwm = zigzag c in
          (name, v, hwm))
    in
    let histograms =
      read_list c (fun c ->
          let hs_name = str c in
          let nb = varint c in
          (* each bound is 8 bytes, so the remaining payload bounds a
             well-formed count — same guard as [read_list] *)
          if nb < 0 || nb > (c.cstop - c.p) / 8 then
            raise (Fail "histogram bound count out of range");
          let hs_bounds =
            Array.init nb (fun _ -> Int64.float_of_bits (fixed64 c))
          in
          let hs_buckets =
            Array.init (nb + 1) (fun _ -> nonneg c "bucket count")
          in
          let hs_sum = Int64.float_of_bits (fixed64 c) in
          let hs_count = nonneg c "histogram count" in
          { Metrics.hs_name; hs_bounds; hs_buckets; hs_sum; hs_count })
    in
    { Metrics.counters; gauges; histograms }

  let read_span c : Adprom_obs.Trace.span =
    let name = str c in
    let trace_id = nonneg c "trace id" in
    let span_id = nonneg c "span id" in
    let parent = opt_int c in
    let domain = nonneg c "domain id" in
    let start_ns = fixed64 c in
    let dur_ns = fixed64 c in
    let attrs =
      read_list c (fun c ->
          let k = str c in
          let v = str c in
          (k, v))
    in
    { Adprom_obs.Trace.name; trace_id; span_id; parent; domain; start_ns;
      dur_ns; attrs }

  (* Payload readers shared by the frame and item decoders. Those marked
     [@inline] run once per item; left as calls, they slowed the item
     decoder by about 8%. *)

  let[@inline] opt_key = function None -> 0 | Some v -> v + 1

  (* An optional int as its wire value: 0 for [None], [v + 1] for
     [Some v] — the [opt_key] of what [opt_int] would return. *)
  let[@inline] opt_raw c =
    let v = varint c in
    if v < 0 then raise (Fail "negative optional int") else v

  let[@inline] of_raw v = if v = 0 then None else Some (v - 1)

  (* Does the cached [e] hold exactly these decoded parts? The strings
     are compared by identity: both come from this connection's table. *)
  let[@inline] holds d (e : Runtime.Collector.event) ~ci ~block ~tag ~ni ~label
      ~site =
    e.block = block
    && e.caller == d.interned.(ci)
    &&
    match e.symbol with
    | Entry -> tag = 0
    | Exit -> tag = 1
    | Func f -> tag = 2 && f == d.interned.(ni)
    | Lib l ->
        tag = 3 && l.name == d.interned.(ni) && opt_key l.label = label
        && opt_key l.site = site

  (* The event goes through the connection's cache, keyed by the
     caller's and name's table indices, the block, the symbol kind, the
     label and the site: a repeated event decodes to the record its
     first occurrence did, and allocates nothing when it sits in its
     home slot. *)
  let[@inline] read_call d c =
    let session = nonneg c "session id" in
    let ci = strref d c in
    let block = zigzag c in
    let tag = u8 c in
    if tag > 3 then raise (Fail (Printf.sprintf "bad symbol tag %d" tag));
    let ni = if tag >= 2 then strref d c else -1 in
    let label = if tag = 3 then opt_raw c else 0 in
    let site = if tag = 3 then opt_raw c else 0 in
    let hash =
      let k = 8191 in
      ci + (k * (block + (k * (ni + (k * (tag + (4 * (label + (k * site)))))))))
    in
    let home = Runtime.Collector.Cache.home d.events ~hash in
    let event =
      if holds d home ~ci ~block ~tag ~ni ~label ~site then home
      else
        let symbol : Symbol.t =
          match tag with
          | 0 -> Entry
          | 1 -> Exit
          | 2 -> Func d.interned.(ni)
          | _ -> Lib { name = d.interned.(ni); label = of_raw label; site = of_raw site }
        in
        Runtime.Collector.Cache.share d.events ~hash
          { Runtime.Collector.caller = d.interned.(ci); block; symbol }
    in
    { Transport.session; event }

  let[@inline] read_query c =
    let q_session = nonneg c "session id" in
    let rows = nonneg c "row count" in
    let sql = str c in
    { Transport.q_session; rows; sql }

  let read_hello c =
    let peer = str c in
    let sample =
      if bool c then begin
        let mono_ns = fixed64 c in
        let wall_ns = fixed64 c in
        Some (mono_ns, wall_ns)
      end
      else None
    in
    Hello { peer; sample }

  (* [v], provided its reader consumed the whole payload *)
  let[@inline] whole c v =
    if c.p <> c.cstop then raise_notrace (Fail "trailing bytes after payload")
    else v

  let decode_payload d tag c =
    whole c
      (match tag with
      | 0 -> read_hello c
      | 1 -> Ack { count = nonneg c "ack count" }
      | 2 -> Call (read_call d c)
      | 3 -> Query (read_query c)
      | 6 -> Bye
      | 7 ->
          let node = str c in
          let events_offered = varint c in
          let events_ingested = varint c in
          let events_dropped = varint c in
          let sessions =
            read_list c (fun c ->
                let session = varint c in
                let events = varint c in
                let windows = varint c in
                let worst = flag c in
                let verdicts = read_list c verdict in
                let qsig_checks = varint c in
                let qsig_anomalies = varint c in
                { Daemon.session; events; windows; worst; verdicts;
                  qsig_checks; qsig_anomalies })
          in
          let shed =
            read_list c (fun c ->
                let s = varint c in
                let dropped = varint c in
                let discarded = varint c in
                (s, dropped, discarded))
          in
          let incidents =
            read_list c (fun c ->
                let s = varint c in
                let text = str c in
                (s, text))
          in
          let fu =
            read_list c (fun c ->
                let s = varint c in
                let f = fused c in
                (s, f))
          in
          Summary
            { node;
              summary =
                { Daemon.sessions; shed; events_offered; events_ingested;
                  events_dropped };
              incidents;
              fused = fu }
      | 8 -> Clock_probe { seq = nonneg c "probe seq" }
      | 9 ->
          let seq = nonneg c "probe seq" in
          let mono_ns = fixed64 c in
          let wall_ns = fixed64 c in
          Clock_reply { seq; mono_ns; wall_ns }
      | 10 ->
          let trace_id = nonneg c "trace id" in
          let send_mono_ns = fixed64 c in
          let offset_ns = fixed64 c in
          Trace_mark { trace_id; send_mono_ns; offset_ns }
      | 11 -> Health_req
      | 12 ->
          let h_node = str c in
          let h_status =
            match Health.status_of_int (u8 c) with
            | Some s -> s
            | None -> raise (Fail "bad health status byte")
          in
          let h_uptime_s = Int64.float_of_bits (fixed64 c) in
          let h_snapshot = read_snapshot c in
          let h_incidents =
            read_list c (fun c ->
                let s = varint c in
                let text = str c in
                (s, text))
          in
          Health_resp { h_node; h_status; h_snapshot; h_incidents; h_uptime_s }
      | 13 -> Spans_req
      | 14 -> Spans_resp (read_list c read_span)
      | _ -> assert false (* [header_error] rejected the tag already *))

  let[@inline] payload_length s i =
    (Char.code (String.unsafe_get s (i + 4)) lsl 24)
    lor (Char.code (String.unsafe_get s (i + 5)) lsl 16)
    lor (Char.code (String.unsafe_get s (i + 6)) lsl 8)
    lor Char.code (String.unsafe_get s (i + 7))

  (* The one header check, on the eight bytes at [i]: [None] — an
     immediate, so a well-formed frame allocates nothing here. *)
  let[@inline] header_error s i =
    let b0 = Char.code (String.unsafe_get s i)
    and b1 = Char.code (String.unsafe_get s (i + 1))
    and ver = Char.code (String.unsafe_get s (i + 2))
    and tag = Char.code (String.unsafe_get s (i + 3))
    and len = payload_length s i in
    if b0 <> Char.code magic.[0] || b1 <> Char.code magic.[1] then
      Some (Bad_magic { byte0 = b0; byte1 = b1 })
    else if ver <> protocol_version then Some (Bad_version ver)
    else if unassigned tag then Some (Bad_frame_type tag)
    else if len > max_payload then
      Some (Frame_too_large { length = len; limit = max_payload })
    else None

  (* The chunk loop of both decoders: check each header, then let [step]
     read the complete payload through one cursor reused across the
     chunk and fold it into [acc] with [f]. *)
  let parse step d s pos stop ~init ~f =
    let c = { cbuf = s; p = 0; cstop = 0 } in
    let rec go acc i =
      if d.paused || stop - i < 8 then Ok (acc, i)
      else
        match header_error s i with
        | Some e -> Error e
        | None -> (
            let next = i + 8 + payload_length s i in
            if next > stop then Ok (acc, i)
            else begin
              let tag = Char.code (String.unsafe_get s (i + 3)) in
              c.p <- i + 8;
              c.cstop <- next;
              match step d c tag acc f with
              | acc -> go acc next
              | exception Fail reason ->
                  Error (Bad_payload { frame = frame_name_of_tag tag; reason })
            end)
    in
    go init pos

  let frame_step d c tag acc f = f acc (decode_payload d tag c)

  (* An item stream decodes call and query payloads straight to
     {!Transport.item}, with no intermediate [frame] box: the hot loop
     behind {!T.fold}. Record files may open with a hello, which is
     validated and skipped. *)
  let item_step d c tag acc f =
    match tag with
    | 2 -> f acc (Transport.Call (whole c (read_call d c)))
    | 3 -> f acc (Transport.Query (whole c (read_query c)))
    | 0 ->
        ignore (whole c (read_hello c));
        acc
    | _ -> raise_notrace (Fail "control frame in an item stream")

  (* A frame split across chunks: move into [pending] only the bytes it
     still lacks, decode it from there and reset [pending], so one large
     frame does not pin its size for the life of the connection. Returns
     where the rest of the chunk starts. *)
  let stitch step d s pos stop ~init ~f =
    let take pos n =
      let n = max 0 (min n (stop - pos)) in
      Buffer.add_substring d.pending s pos n;
      pos + n
    in
    if Buffer.length d.pending = 0 then Ok (init, pos)
    else
      let pos = take pos (8 - Buffer.length d.pending) in
      let head = Buffer.sub d.pending 0 (min 8 (Buffer.length d.pending)) in
      if String.length head < 8 then Ok (init, pos)
      else
        match header_error head 0 with
        | Some e -> Error e
        | None ->
            let total = 8 + payload_length head 0 in
            let pos = take pos (total - Buffer.length d.pending) in
            if Buffer.length d.pending < total then Ok (init, pos)
            else begin
              let v = Buffer.contents d.pending in
              Buffer.reset d.pending;
              Result.map (fun (acc, _) -> (acc, pos)) (parse step d v 0 total ~init ~f)
            end

  (* the generic chunk pump: stitching, in-place parsing and poisoning
     in one place; [step] reads each completed frame, [f] folds it *)
  let feed_gen step d ?(pos = 0) ?len s ~init ~f =
    match d.dead with
    | Some e -> Error e
    | None -> (
        d.paused <- false;
        let len = match len with Some l -> l | None -> String.length s - pos in
        let stop = pos + len in
        let parsed =
          Result.bind (stitch step d s pos stop ~init ~f) (fun (acc, i) ->
              parse step d s i stop ~init:acc ~f)
        in
        match parsed with
        | Error e ->
            d.dead <- Some e;
            Error e
        | Ok (acc, i) when d.paused -> Ok (acc, i)
        | Ok (acc, i) ->
            if i < stop then Buffer.add_substring d.pending s i (stop - i);
            Ok (acc, stop))

  let feed_fold d ?pos ?len s ~init ~f = feed_gen frame_step d ?pos ?len s ~init ~f
  let feed_items d ?pos ?len s ~init ~f = feed_gen item_step d ?pos ?len s ~init ~f

  let feed d ?pos ?len s =
    Result.map (fun (acc, _) -> List.rev acc) (feed_fold d ?pos ?len s ~init:[] ~f:(fun acc fr -> fr :: acc))

  let finish d =
    match d.dead with
    | Some e -> Error e
    | None ->
        let n = Buffer.length d.pending in
        if n = 0 then Ok ()
        else begin
          let e = Truncated { pending = n } in
          d.dead <- Some e;
          Error e
        end
end

let detect s =
  if String.length s >= 2 && s.[0] = magic.[0] && s.[1] = magic.[1] then
    Transport.Binary
  else Transport.Line

module T = struct
  let id = "binary"

  type enc = Encoder.t
  type dec = Decoder.t

  let encoder = Encoder.create
  let decoder = Decoder.create

  let encode e buf = function
    | Transport.Call ev -> Encoder.add_call e buf ev
    | Transport.Query q -> Encoder.add_query e buf q

  let flush = Encoder.flush

  let fold d ?pos ?len s ~init ~f =
    Result.map fst (Result.map_error error_to_string (Decoder.feed_items d ?pos ?len s ~init ~f))

  let finish d =
    match Decoder.finish d with
    | Error e -> Error (error_to_string e)
    | Ok () -> Ok []
end

let transport_of_wire : Transport.wire -> (module Transport.S) = function
  | Transport.Line -> (module Transport.Text)
  | Transport.Binary -> (module T)
