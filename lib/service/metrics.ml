type counter = { c_name : string; c_value : int Atomic.t }
type gauge = { g_name : string; g_value : int Atomic.t; g_max : int Atomic.t }

type histogram = {
  h_name : string;
  h_mutex : Mutex.t;
  bounds : float array;  (* upper bounds, strictly increasing *)
  buckets : int array;  (* length = length bounds + 1; last = +inf *)
  h_sum : float array;  (* one cell: a flat float, so adding to it boxes nothing *)
  mutable h_count : int;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t = {
  mutex : Mutex.t;
  table : (string, metric) Hashtbl.t;
  help : (string, string) Hashtbl.t;
  mutable order : string list;  (* registration order, reversed *)
}

let create () =
  { mutex = Mutex.create ();
    table = Hashtbl.create 32;
    help = Hashtbl.create 32;
    order = [] }

let register ?help t name build unwrap =
  Mutex.lock t.mutex;
  let m =
    match Hashtbl.find_opt t.table name with
    | Some m -> m
    | None ->
        let m = build () in
        Hashtbl.replace t.table name m;
        t.order <- name :: t.order;
        m
  in
  (match help with
  | Some h when not (Hashtbl.mem t.help name) -> Hashtbl.replace t.help name h
  | _ -> ());
  Mutex.unlock t.mutex;
  match unwrap m with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Metrics: %S registered with another type" name)

let counter t name =
  register t name
    (fun () -> Counter { c_name = name; c_value = Atomic.make 0 })
    (function Counter c -> Some c | _ -> None)

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.c_value by)
let counter_value c = Atomic.get c.c_value

let gauge t name =
  register t name
    (fun () -> Gauge { g_name = name; g_value = Atomic.make 0; g_max = Atomic.make 0 })
    (function Gauge g -> Some g | _ -> None)

(* keep the high-watermark monotone without a lock; a top-level loop,
   so that setting a gauge allocates no closure *)
let rec raise_max g v =
  let m = Atomic.get g.g_max in
  if v > m && not (Atomic.compare_and_set g.g_max m v) then raise_max g v

let set_gauge g v =
  Atomic.set g.g_value v;
  raise_max g v

let gauge_value g = Atomic.get g.g_value
let gauge_max g = Atomic.get g.g_max

let default_buckets =
  [| 1e-6; 5e-6; 1e-5; 5e-5; 1e-4; 5e-4; 1e-3; 5e-3; 1e-2; 5e-2; 0.1; 0.5; 1.0 |]

let histogram ?(buckets = default_buckets) ?help t name =
  register ?help t name
    (fun () ->
      Histogram
        {
          h_name = name;
          h_mutex = Mutex.create ();
          bounds = buckets;
          buckets = Array.make (Array.length buckets + 1) 0;
          h_sum = [| 0.0 |];
          h_count = 0;
        })
    (function Histogram h -> Some h | _ -> None)

(* the first bucket whose upper bound holds [v]; a top-level loop, so
   that observing allocates no closure *)
let rec slot (bounds : float array) (v : float) i =
  if i >= Array.length bounds || v <= bounds.(i) then i else slot bounds v (i + 1)

let observe h v =
  Mutex.lock h.h_mutex;
  let i = slot h.bounds v 0 in
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.h_sum.(0) <- h.h_sum.(0) +. v;
  h.h_count <- h.h_count + 1;
  Mutex.unlock h.h_mutex

(* Spans land here through the {!span_exporter} hook: one histogram per
   span name, so Chrome-trace detail and Prometheus aggregates come from
   the same instrumentation points. *)

let sanitize name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c | _ -> '_')
    name

let span_exporter t (span : Adprom_obs.Trace.span) =
  let h = histogram t (Printf.sprintf "adprom_span_%s_seconds" (sanitize span.Adprom_obs.Trace.name)) in
  observe h (Int64.to_float span.Adprom_obs.Trace.dur_ns *. 1e-9)

(* ---- snapshots: the mergeable value form of the registry -------------- *)

type hist_snapshot = {
  hs_name : string;
  hs_bounds : float array;
  hs_buckets : int array;  (* raw per-bucket counts, length bounds + 1 *)
  hs_sum : float;
  hs_count : int;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int * int) list;  (* name, value, high-watermark *)
  histograms : hist_snapshot list;
}

(* The registry in one walk, sorted by name, not registration order:
   the dump is diffable across runs whose shards registered their series
   in different interleavings. Returns the help table alongside. *)
let snapshot_with_help t =
  Mutex.lock t.mutex;
  let names = List.sort compare (List.rev t.order) in
  let metrics = List.filter_map (Hashtbl.find_opt t.table) names in
  let help = Hashtbl.copy t.help in
  Mutex.unlock t.mutex;
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (function
      | Counter c -> counters := (c.c_name, counter_value c) :: !counters
      | Gauge g -> gauges := (g.g_name, gauge_value g, gauge_max g) :: !gauges
      | Histogram h ->
          Mutex.lock h.h_mutex;
          let hs =
            {
              hs_name = h.h_name;
              hs_bounds = Array.copy h.bounds;
              hs_buckets = Array.copy h.buckets;
              hs_sum = h.h_sum.(0);
              hs_count = h.h_count;
            }
          in
          Mutex.unlock h.h_mutex;
          histograms := hs :: !histograms)
    metrics;
  ( {
      counters = List.rev !counters;
      gauges = List.rev !gauges;
      histograms = List.rev !histograms;
    },
    help )

let snapshot t = fst (snapshot_with_help t)

(* quantile over raw (non-cumulative) buckets *)
let hist_quantile { hs_bounds = bounds; hs_buckets = buckets; hs_count = total; _ } q =
  if total = 0 then nan
  else begin
    let target = int_of_float (ceil (q *. float_of_int total)) in
    let target = max 1 (min total target) in
    let acc = ref 0 and ans = ref infinity in
    (try
       Array.iteri
         (fun i n ->
           acc := !acc + n;
           if !acc >= target then begin
             (ans := if i < Array.length bounds then bounds.(i) else infinity);
             raise Exit
           end)
         buckets
     with Exit -> ());
    !ans
  end

let merge_snapshots snaps =
  let ctbl : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let gtbl : (string, int * int) Hashtbl.t = Hashtbl.create 32 in
  let htbl : (string, hist_snapshot) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun s ->
      List.iter
        (fun (name, v) ->
          Hashtbl.replace ctbl name
            (v + Option.value ~default:0 (Hashtbl.find_opt ctbl name)))
        s.counters;
      List.iter
        (fun (name, v, m) ->
          (* per-node gauges (queue depths, watermarks) don't add up
             across nodes: the fleet view keeps the worst case *)
          match Hashtbl.find_opt gtbl name with
          | None -> Hashtbl.replace gtbl name (v, m)
          | Some (pv, pm) -> Hashtbl.replace gtbl name (max pv v, max pm m))
        s.gauges;
      List.iter
        (fun hs ->
          match Hashtbl.find_opt htbl hs.hs_name with
          | None ->
              Hashtbl.replace htbl hs.hs_name
                { hs with
                  hs_bounds = Array.copy hs.hs_bounds;
                  hs_buckets = Array.copy hs.hs_buckets }
          | Some prev when prev.hs_bounds = hs.hs_bounds ->
              Array.iteri
                (fun i n -> prev.hs_buckets.(i) <- prev.hs_buckets.(i) + n)
                hs.hs_buckets;
              Hashtbl.replace htbl hs.hs_name
                { prev with
                  hs_sum = prev.hs_sum +. hs.hs_sum;
                  hs_count = prev.hs_count + hs.hs_count;
                  hs_buckets = prev.hs_buckets }
          | Some _ -> () (* bucket-layout mismatch: keep the first node's *))
        s.histograms)
    snaps;
  let sorted_keys tbl =
    Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare
  in
  {
    counters = List.map (fun k -> (k, Hashtbl.find ctbl k)) (sorted_keys ctbl);
    gauges =
      List.map
        (fun k ->
          let v, m = Hashtbl.find gtbl k in
          (k, v, m))
        (sorted_keys gtbl);
    histograms = List.map (Hashtbl.find htbl) (sorted_keys htbl);
  }

let snapshot_counter s name =
  Option.value ~default:0 (List.assoc_opt name s.counters)

let snapshot_histogram s name =
  List.find_opt (fun hs -> hs.hs_name = name) s.histograms

(* ---- Prometheus text exposition --------------------------------------- *)

let fmt_le b = if b = infinity then "+Inf" else Printf.sprintf "%g" b

let render ?(help = fun _ -> None) s =
  let buf = Buffer.create 1024 in
  let meta name kind =
    let h = Option.value ~default:name (help name) in
    Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name h);
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  let family (name, m) =
    match m with
    | `Counter v ->
        meta name "counter";
        Buffer.add_string buf (Printf.sprintf "%s %d\n" name v)
    | `Gauge (v, hwm) ->
        meta name "gauge";
        Buffer.add_string buf (Printf.sprintf "%s %d\n" name v);
        meta (name ^ "_max") "gauge";
        Buffer.add_string buf (Printf.sprintf "%s_max %d\n" name hwm)
    | `Histogram hs ->
        meta name "histogram";
        let cumulative = ref 0 in
        Array.iteri
          (fun i n ->
            cumulative := !cumulative + n;
            let le =
              if i < Array.length hs.hs_bounds then fmt_le hs.hs_bounds.(i)
              else "+Inf"
            in
            (* a scraper needs every cumulative bucket, zero or not *)
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name le !cumulative))
          hs.hs_buckets;
        Buffer.add_string buf (Printf.sprintf "%s_sum %g\n" name hs.hs_sum);
        Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name hs.hs_count)
  in
  (* one name-sorted sequence across the three kinds *)
  List.map (fun (n, v) -> (n, `Counter v)) s.counters
  @ List.map (fun (n, v, hwm) -> (n, `Gauge (v, hwm))) s.gauges
  @ List.map (fun hs -> (hs.hs_name, `Histogram hs)) s.histograms
  |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter family;
  Buffer.contents buf

let dump t =
  let s, help = snapshot_with_help t in
  render ~help:(Hashtbl.find_opt help) s
