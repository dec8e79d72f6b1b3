(* The observability library (Adprom_obs): bounded rings, the
   structured log, and the tracer — QCheck2 properties for span nesting
   (unique ids, one trace id per tree, parent containment, zero cost
   when disabled) plus unit tests for hooks, attrs, the Chrome
   trace_event export and the JSONL event shape. *)

module Ring = Adprom_obs.Ring
module Log = Adprom_obs.Log
module Trace = Adprom_obs.Trace
module Clock = Adprom_obs.Clock

let contains needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec probe i =
    i + n <= h && (String.sub haystack i n = needle || probe (i + 1))
  in
  n = 0 || probe 0

(* --- rings ------------------------------------------------------------- *)

let test_ring_basics () =
  let r = Ring.create 3 in
  Alcotest.(check int) "capacity" 3 (Ring.capacity r);
  Alcotest.(check (list int)) "empty" [] (Ring.to_list r);
  List.iter (Ring.push r) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "length bounded" 3 (Ring.length r);
  Alcotest.(check int) "pushes counted" 5 (Ring.pushed r);
  Alcotest.(check (list int)) "last three, oldest first" [ 3; 4; 5 ] (Ring.to_list r);
  Ring.clear r;
  Alcotest.(check (list int)) "cleared" [] (Ring.to_list r);
  Alcotest.(check int) "pushed reset" 0 (Ring.pushed r)

let test_ring_zero_capacity () =
  let r = Ring.create 0 in
  Ring.push r 42;
  Alcotest.(check int) "retains nothing" 0 (Ring.length r);
  Alcotest.(check int) "still counts" 1 (Ring.pushed r);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Ring.create: negative capacity") (fun () ->
      ignore (Ring.create (-1)))

let prop_ring_keeps_last_capacity =
  QCheck2.Test.make ~name:"Ring.to_list = last [capacity] pushes, in order"
    ~count:200
    QCheck2.Gen.(pair (int_bound 8) (list_size (int_bound 40) int))
    (fun (cap, xs) ->
      let r = Ring.create cap in
      List.iter (Ring.push r) xs;
      let n = List.length xs in
      let expected = List.filteri (fun i _ -> i >= n - cap) xs in
      Ring.to_list r = expected
      && Ring.pushed r = n
      && Ring.length r = List.length expected)

(* --- clock ------------------------------------------------------------- *)

let test_clock_monotone () =
  let a = Clock.monotonic_ns () in
  let b = Clock.monotonic_ns () in
  Alcotest.(check bool) "non-decreasing" true (Int64.compare b a >= 0)

(* --- structured log ---------------------------------------------------- *)

let test_log_threshold_and_ring () =
  let saved = Log.threshold () in
  Log.set_threshold Log.Info;
  let ring = Ring.create 8 in
  Log.emit ~ring Log.Debug ~scope:"t" "dropped below threshold";
  Alcotest.(check int) "debug dropped" 0 (Ring.pushed ring);
  Log.emit ~ring
    ~fields:[ ("n", Log.Int 7); ("ok", Log.Bool true) ]
    Log.Warn ~scope:"t" "kept";
  Alcotest.(check int) "warn kept" 1 (Ring.pushed ring);
  (match Ring.to_list ring with
  | [ e ] ->
      Alcotest.(check string) "scope" "t" e.Log.scope;
      Alcotest.(check string) "message" "kept" e.Log.message
  | l -> Alcotest.failf "expected one event, got %d" (List.length l));
  Log.set_threshold saved

let test_log_json_shape () =
  let e =
    {
      Log.time = 1.5;
      level = Log.Error;
      scope = "daemon.shard0";
      message = "a \"quoted\"\nmessage";
      fields = [ ("x", Log.Float 0.25); ("who", Log.Str "me") ];
    }
  in
  let json = Log.event_to_json e in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %s" needle) true
        (contains needle json))
    [
      "\"level\":\"error\"";
      "\"scope\":\"daemon.shard0\"";
      "\\\"quoted\\\"\\n";
      "\"x\":0.25";
      "\"who\":\"me\"";
    ];
  Alcotest.(check bool) "single line" true (not (String.contains json '\n'))

(* --- tracer ------------------------------------------------------------ *)

type tree = Node of tree list

let tree_gen =
  QCheck2.Gen.(
    sized
    @@ fix (fun self n ->
           if n <= 0 then pure (Node [])
           else
             list_size (int_bound 3) (self (n / 4)) >|= fun kids -> Node kids))

let rec count_nodes (Node kids) =
  1 + List.fold_left (fun acc k -> acc + count_nodes k) 0 kids

let rec exec_tree depth (Node kids) =
  Trace.with_span (Printf.sprintf "d%d" depth) (fun () ->
      List.iter (exec_tree (depth + 1)) kids)

let span_end sp = Int64.add sp.Trace.start_ns sp.Trace.dur_ns

let prop_span_tree_well_formed =
  QCheck2.Test.make
    ~name:"with_span: unique ids, one trace id, parents contain children"
    ~count:100 tree_gen
    (fun tree ->
      Trace.set_enabled true;
      Trace.clear ();
      exec_tree 0 tree;
      Trace.set_enabled false;
      let spans = Trace.spans () in
      let ids = List.map (fun sp -> sp.Trace.span_id) spans in
      let by_id = List.map (fun sp -> (sp.Trace.span_id, sp)) spans in
      let roots = List.filter (fun sp -> sp.Trace.parent = None) spans in
      List.length spans = count_nodes tree
      && List.length (List.sort_uniq compare ids) = List.length ids
      && List.length roots = 1
      && (match roots with
         | [ root ] ->
             List.for_all
               (fun sp -> sp.Trace.trace_id = root.Trace.span_id)
               spans
         | _ -> false)
      && List.for_all
           (fun sp ->
             match sp.Trace.parent with
             | None -> true
             | Some pid -> (
                 match List.assoc_opt pid by_id with
                 | None -> false
                 | Some parent ->
                     parent.Trace.start_ns <= sp.Trace.start_ns
                     && span_end sp <= span_end parent))
           spans)

let prop_disabled_records_nothing =
  QCheck2.Test.make ~name:"disabled tracer: no spans, thunk still runs"
    ~count:50 tree_gen
    (fun tree ->
      Trace.set_enabled false;
      Trace.clear ();
      let ran = ref 0 in
      Trace.with_span "outer" (fun () ->
          exec_tree 1 tree;
          incr ran);
      !ran = 1 && Trace.span_count () = 0 && Trace.current_trace_id () = None)

let test_span_on_exception () =
  Trace.set_enabled true;
  Trace.clear ();
  (try Trace.with_span "boom" (fun () -> failwith "expected") with
  | Failure _ -> ());
  Trace.set_enabled false;
  (match Trace.spans () with
  | [ sp ] -> Alcotest.(check string) "span recorded" "boom" sp.Trace.name
  | l -> Alcotest.failf "expected one span, got %d" (List.length l));
  Alcotest.(check bool) "context unwound" true (Trace.current_trace_id () = None)

let test_attrs_lazy () =
  Trace.set_enabled false;
  Trace.clear ();
  let calls = ref 0 in
  let attrs () =
    incr calls;
    [ ("k", "v") ]
  in
  Trace.with_span ~attrs "off" (fun () -> ());
  Alcotest.(check int) "attrs not evaluated when disabled" 0 !calls;
  Trace.set_enabled true;
  let result = ref "" in
  Trace.with_span
    ~attrs:(fun () ->
      incr calls;
      [ ("result", !result) ])
    "on"
    (fun () -> result := "computed");
  Trace.set_enabled false;
  Alcotest.(check int) "attrs evaluated once when enabled" 1 !calls;
  match Trace.spans () with
  | [ sp ] ->
      (* the attrs thunk runs after the body, so it sees the result *)
      Alcotest.(check (list (pair string string)))
        "attrs see the thunk's outcome"
        [ ("result", "computed") ]
        sp.Trace.attrs
  | l -> Alcotest.failf "expected one span, got %d" (List.length l)

let test_hooks () =
  Trace.set_enabled true;
  Trace.clear ();
  let seen = ref [] in
  let h = Trace.on_span_end (fun sp -> seen := sp.Trace.name :: !seen) in
  Trace.with_span "a" (fun () -> Trace.with_span "b" (fun () -> ()));
  Alcotest.(check (list string)) "hook saw both, completion order" [ "a"; "b" ] !seen;
  Trace.remove_hook h;
  Trace.with_span "c" (fun () -> ());
  Alcotest.(check (list string)) "removed hook is silent" [ "a"; "b" ] !seen;
  (* a raising hook is disabled, not fatal *)
  let h2 = Trace.on_span_end (fun _ -> failwith "bad hook") in
  Trace.with_span "d" (fun () -> ());
  Trace.with_span "e" (fun () -> ());
  Trace.remove_hook h2;
  Trace.set_enabled false;
  Alcotest.(check int) "spans still recorded past a raising hook" 5
    (Trace.span_count ())

let test_bounded_buffer () =
  Trace.set_capacity 4;
  Trace.set_enabled true;
  for i = 0 to 9 do
    Trace.with_span (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  Trace.set_enabled false;
  Alcotest.(check int) "retained bounded" 4 (List.length (Trace.spans ()));
  Alcotest.(check int) "all finishes counted" 10 (Trace.span_count ());
  Alcotest.(check (list string)) "newest kept" [ "s6"; "s7"; "s8"; "s9" ]
    (List.map (fun sp -> sp.Trace.name) (Trace.spans ()));
  Trace.set_capacity 65536

let test_chrome_json_shape () =
  Trace.set_capacity 65536;
  Trace.set_enabled true;
  Trace.clear ();
  Trace.with_span "parent"
    ~attrs:(fun () -> [ ("app", "hospital") ])
    (fun () -> Trace.with_span "child" (fun () -> ()));
  Trace.set_enabled false;
  let json = Trace.to_chrome_json (Trace.spans ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %s" needle) true
        (contains needle json))
    [
      "\"traceEvents\":[";
      "\"ph\":\"X\"";
      "\"name\":\"parent\"";
      "\"name\":\"child\"";
      "\"cat\":\"adprom\"";
      "\"app\":\"hospital\"";
      "\"parent\":";
      "\"displayTimeUnit\":\"ms\"";
    ];
  (* timestamps are relative to the earliest span: the root starts at 0 *)
  Alcotest.(check bool) "relative timestamps" true (contains "\"ts\":0.000" json)

let () =
  Alcotest.run "obs"
    [
      ( "ring",
        [
          Alcotest.test_case "bounded push/to_list/clear" `Quick test_ring_basics;
          Alcotest.test_case "zero capacity discards" `Quick test_ring_zero_capacity;
          QCheck_alcotest.to_alcotest prop_ring_keeps_last_capacity;
        ] );
      ( "clock",
        [ Alcotest.test_case "monotone non-decreasing" `Quick test_clock_monotone ] );
      ( "log",
        [
          Alcotest.test_case "threshold gating and ring capture" `Quick
            test_log_threshold_and_ring;
          Alcotest.test_case "JSONL event shape" `Quick test_log_json_shape;
        ] );
      ( "trace properties",
        [
          QCheck_alcotest.to_alcotest prop_span_tree_well_formed;
          QCheck_alcotest.to_alcotest prop_disabled_records_nothing;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span recorded on exception" `Quick test_span_on_exception;
          Alcotest.test_case "attrs lazy, post-body" `Quick test_attrs_lazy;
          Alcotest.test_case "hooks fan out and detach" `Quick test_hooks;
          Alcotest.test_case "bounded span buffer" `Quick test_bounded_buffer;
          Alcotest.test_case "Chrome trace_event shape" `Quick test_chrome_json_shape;
        ] );
    ]
