(* The query-signature axis: canonical signatures, per-slot constraint
   learning, predicate widening, the compiled engine and its streaming
   scorer, and the service-layer fusion. The QCheck2 properties pin the
   contracts the other layers build on: signature invariance under
   literal substitution, print/parse round-trips, streaming == batch,
   and policy monotonicity (flexible anomalies are a subset of strict
   ones — the daemon's warn-vs-enforce ordering). *)

module Signature = Adprom_qsig.Signature
module Constraints = Adprom_qsig.Constraints
module Profile = Adprom_qsig.Profile
module Engine = Adprom_qsig.Engine
module Service = Adprom_service

(* --- generators -------------------------------------------------------- *)

(* Literal vectors feeding the SQL templates. Strings are quoted
   alphanumerics so the only structural variation is the value. *)
type lit = I of int | S of string

let lit_to_sql = function
  | I n -> string_of_int n
  | S s -> Printf.sprintf "'%s'" s

let gen_lit =
  QCheck2.Gen.(
    oneof
      [
        (* the dialect has no unary minus: literals are non-negative *)
        map (fun n -> I n) (int_range 0 10000);
        map (fun n -> S (Printf.sprintf "v%d" (abs n))) (int_range 0 100000);
      ])

(* Each template renders a fixed structure around its literal slots, so
   two renderings differ only in constants. *)
let templates =
  [|
    (1, fun l -> Printf.sprintf "SELECT a, b FROM t WHERE a = %s" l.(0));
    ( 2,
      fun l ->
        Printf.sprintf "SELECT a FROM t WHERE a = %s AND b > %s" l.(0) l.(1) );
    ( 3,
      fun l ->
        Printf.sprintf "INSERT INTO t (a, b, c) VALUES (%s, %s, %s)" l.(0)
          l.(1) l.(2) );
    (2, fun l -> Printf.sprintf "UPDATE t SET a = %s WHERE b = %s" l.(0) l.(1));
    (1, fun l -> Printf.sprintf "DELETE FROM t WHERE a = %s" l.(0));
    ( 2,
      fun l ->
        Printf.sprintf "SELECT a FROM t WHERE a IN (%s, %s)" l.(0) l.(1) );
    ( 2,
      fun l ->
        Printf.sprintf "SELECT b FROM t WHERE b = %s ORDER BY b LIMIT %s" l.(0)
          (match l.(1) with _ -> "7") );
  |]

let gen_template = QCheck2.Gen.int_range 0 (Array.length templates - 1)

let render idx lits =
  (snd templates.(idx)) (Array.map lit_to_sql (Array.of_list lits))

let gen_lits idx = QCheck2.Gen.list_repeat (fst templates.(idx)) gen_lit

let sig_of_exn sql =
  match Signature.of_sql sql with
  | Ok s -> Signature.to_string s
  | Error e -> Alcotest.failf "unparseable %S: %s" sql e

let parse_exn sql =
  match Sqldb.Sql_parser.parse sql with
  | Ok stmt -> stmt
  | Error e -> Alcotest.failf "unparseable %S: %s" sql e

(* --- signature canonicalization ---------------------------------------- *)

let test_signature_case_whitespace () =
  let s1 = sig_of_exn "SELECT a, b FROM t WHERE a = 1" in
  let s2 = sig_of_exn "select   a,b from t\n where a=2" in
  Alcotest.(check string) "case and whitespace erased" s1 s2

let test_signature_in_arity_classes () =
  let one = sig_of_exn "SELECT a FROM t WHERE a IN (1)" in
  let few = sig_of_exn "SELECT a FROM t WHERE a IN (1, 2, 3)" in
  let few' = sig_of_exn "SELECT a FROM t WHERE a IN (9, 8, 7, 6, 5, 4, 3, 2)" in
  let many =
    sig_of_exn "SELECT a FROM t WHERE a IN (1,2,3,4,5,6,7,8,9)"
  in
  Alcotest.(check string) "2..8 members share the few class" few few';
  Alcotest.(check bool) "1 vs few differ" true (one <> few);
  Alcotest.(check bool) "few vs many differ" true (few <> many)

let test_signature_multirow_insert () =
  let one = sig_of_exn "INSERT INTO t (a) VALUES (1)" in
  let few = sig_of_exn "INSERT INTO t (a) VALUES (1), (2)" in
  let few' = sig_of_exn "INSERT INTO t (a) VALUES (5), (6), (7)" in
  Alcotest.(check string) "multi-tuple arity class" few few';
  Alcotest.(check bool) "single vs multi differ" true (one <> few)

let prop_signature_literal_invariance =
  QCheck2.Test.make ~name:"signature invariant under literal substitution"
    ~count:200
    QCheck2.Gen.(
      gen_template >>= fun idx ->
      pair (pair (pure idx) (gen_lits idx)) (gen_lits idx))
    (fun ((idx, lits1), lits2) ->
      sig_of_exn (render idx lits1) = sig_of_exn (render idx lits2))

let prop_print_parse_roundtrip =
  QCheck2.Test.make ~name:"pretty-print/parse round-trip is a fixpoint"
    ~count:200
    QCheck2.Gen.(gen_template >>= fun idx -> pair (pure idx) (gen_lits idx))
    (fun (idx, lits) ->
      let sql = render idx lits in
      let printed = Sqldb.Sql_pp.to_string (parse_exn sql) in
      let reprinted = Sqldb.Sql_pp.to_string (parse_exn printed) in
      printed = reprinted && sig_of_exn printed = sig_of_exn sql)

(* --- predicate widening ------------------------------------------------ *)

let test_widening_tautology () =
  let w sql = Signature.widening_warnings (parse_exn sql) in
  Alcotest.(check bool)
    "OR '1'='1' is a tautology" true
    (List.mem Signature.Tautology
       (w "SELECT a FROM t WHERE a = '1' OR '1' = '1'"));
  Alcotest.(check bool)
    "honest predicate is quiet" true
    (w "SELECT a FROM t WHERE a = 1 AND b > 2" = []);
  Alcotest.(check bool)
    "constant comparison reported" true
    (List.mem Signature.Constant_comparison
       (w "SELECT a FROM t WHERE a = 1 AND 2 = 2"))

(* --- constraints ------------------------------------------------------- *)

let test_constraint_int_policies () =
  let c =
    List.fold_left Constraints.observe Constraints.bot
      [ Signature.V_int 10; Signature.V_int 20 ]
  in
  Alcotest.(check bool)
    "strict accepts trained value" true
    (Constraints.check Constraints.Strict c (Signature.V_int 10) = None);
  Alcotest.(check bool)
    "strict rejects untrained value" true
    (Constraints.check Constraints.Strict c (Signature.V_int 15) <> None);
  Alcotest.(check bool)
    "flexible accepts near the range" true
    (Constraints.check Constraints.Flexible c (Signature.V_int 25) = None);
  Alcotest.(check bool)
    "flexible rejects far out of band" true
    (Constraints.check Constraints.Flexible c (Signature.V_int 1000) <> None);
  Alcotest.(check bool)
    "type flip is a violation" true
    (Constraints.check Constraints.Flexible c (Signature.V_str "x") <> None)

let test_constraint_band_policies () =
  let band =
    List.fold_left Constraints.band_observe Constraints.band_empty [ 1; 3 ]
  in
  Alcotest.(check bool)
    "strict flags above the band" true
    (Constraints.band_check Constraints.Strict band 4 <> None);
  Alcotest.(check bool)
    "flexible tolerates a moderate excess" true
    (Constraints.band_check Constraints.Flexible band 4 = None);
  Alcotest.(check bool)
    "flexible flags a blowup" true
    (Constraints.band_check Constraints.Flexible band 1000 <> None);
  Alcotest.(check bool)
    "empty band never flags" true
    (Constraints.band_check Constraints.Strict Constraints.band_empty 1000 = None)

let prop_policy_monotone_on_slots =
  (* flexible violations are a subset of strict ones, value by value *)
  QCheck2.Test.make ~name:"flexible slot violations subset of strict" ~count:300
    QCheck2.Gen.(pair (list_size (int_range 1 6) gen_lit) gen_lit)
    (fun (training, probe) ->
      let to_v = function I n -> Signature.V_int n | S s -> Signature.V_str s in
      let c =
        List.fold_left Constraints.observe Constraints.bot
          (List.map to_v training)
      in
      match Constraints.check Constraints.Flexible c (to_v probe) with
      | None -> true
      | Some _ -> Constraints.check Constraints.Strict c (to_v probe) <> None)

(* --- profile ----------------------------------------------------------- *)

let training_log =
  [
    ("SELECT a, b FROM t WHERE a = 1", 1);
    ("SELECT a, b FROM t WHERE a = 2", 1);
    ("SELECT a, b FROM t WHERE a = 3", 0);
    ("INSERT INTO t (a, b, c) VALUES (4, 'x', 5)", 1);
    ("INSERT INTO t (a, b, c) VALUES (5, 'y', 6)", 1);
  ]

let trained () =
  let p = Profile.create () in
  Profile.learn_log p training_log;
  p

let test_profile_save_load_roundtrip () =
  let p = trained () in
  Profile.learn p "NOT SQL AT ALL";
  let saved p =
    let path = Filename.temp_file "qsig" ".profile" in
    Profile.save p path;
    let text = In_channel.with_open_bin path In_channel.input_all in
    (path, text)
  in
  let path, text = saved p in
  match Profile.load path with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok p' ->
      Alcotest.(check (list string))
        "signatures survive" (Profile.signatures p) (Profile.signatures p');
      Alcotest.(check int)
        "malformed bucket survives" (Profile.malformed_count p)
        (Profile.malformed_count p');
      let path', text' = saved p' in
      Sys.remove path;
      Sys.remove path';
      Alcotest.(check string) "round-trip is a fixpoint" text text'

let test_profile_copy_isolated () =
  let p = trained () in
  let q = Profile.copy p in
  Profile.learn q "DELETE FROM other WHERE z = 9";
  Alcotest.(check bool)
    "copy learns independently" true
    (Profile.cardinality q = Profile.cardinality p + 1)

(* --- engine + streaming scorer ----------------------------------------- *)

let gen_query =
  QCheck2.Gen.(
    oneof
      [
        (* in-profile traffic *)
        map
          (fun n -> (Printf.sprintf "SELECT a, b FROM t WHERE a = %d" (1 + (abs n mod 3)), abs n mod 2))
          (int_range 0 1000);
        (* out-of-band literals *)
        map
          (fun n -> (Printf.sprintf "SELECT a, b FROM t WHERE a = %d" (100000 + abs n), 1))
          (int_range 0 1000);
        (* unknown signatures and tautologies *)
        pure ("SELECT a, b FROM t WHERE a = 1 OR '1' = '1'", 50);
        pure ("SELECT secret FROM vault", 3);
        (* unparseable *)
        pure ("NOT SQL", 0);
        (* cardinality blowups on a trained signature *)
        map
          (fun n -> (Printf.sprintf "SELECT a, b FROM t WHERE a = %d" (1 + (abs n mod 3)), 5000))
          (int_range 0 1000);
      ])

let gen_log = QCheck2.Gen.(list_size (int_range 0 30) gen_query)

let prop_streaming_equals_batch =
  QCheck2.Test.make ~name:"streaming scorer == batch check_log" ~count:100
    gen_log
    (fun log ->
      let p = trained () in
      let e1 = Engine.create ~policy:Constraints.Strict p in
      let e2 = Engine.create ~policy:Constraints.Strict p in
      let batch = Engine.check_log e1 log in
      let sc = Engine.Scorer.create e2 in
      let streamed = List.map (fun (sql, rows) -> Engine.Scorer.push sc ~rows sql) log in
      batch = streamed
      && Engine.Scorer.queries_seen sc = List.length log
      && Engine.Scorer.anomalies sc
         = List.length (List.filter (fun v -> v.Engine.anomalous) streamed))

let prop_enforce_superset_of_warn =
  (* the daemon maps warn -> Flexible and enforce -> Strict; a query
     anomalous under warn must stay anomalous under enforce *)
  QCheck2.Test.make ~name:"strict anomalies superset of flexible" ~count:100
    gen_log
    (fun log ->
      let p = trained () in
      let strict = Engine.create ~policy:Constraints.Strict p in
      let flex = Engine.create ~policy:Constraints.Flexible p in
      List.for_all2
        (fun (vs : Engine.verdict) (vf : Engine.verdict) ->
          (not vf.Engine.anomalous) || vs.Engine.anomalous)
        (Engine.check_log strict log) (Engine.check_log flex log))

let test_engine_reasons () =
  let p = trained () in
  let e = Engine.create ~policy:Constraints.Strict p in
  let v = Engine.check e "SELECT a, b FROM t WHERE a = 1 OR '1' = '1'" in
  Alcotest.(check bool) "tautology flagged" true v.Engine.anomalous;
  Alcotest.(check bool)
    "tautology named" true
    (List.mem Engine.Tautology v.Engine.reasons);
  let v = Engine.check ~rows:4000 e "SELECT a, b FROM t WHERE a = 2" in
  Alcotest.(check bool)
    "cardinality blowup flagged" true
    (List.exists
       (function Engine.Cardinality_blowup _ -> true | _ -> false)
       v.Engine.reasons);
  let v = Engine.check e "SELECT a, b FROM t WHERE a = 2" in
  Alcotest.(check bool) "trained query is normal" true (not v.Engine.anomalous);
  Alcotest.(check bool)
    "memo warms up" true
    (Engine.memo_hits e > 0 || Engine.memo_misses e > 0)

(* --- service fusion ---------------------------------------------------- *)

let mk_event ~caller name =
  { Runtime.Collector.symbol = Analysis.Symbol.lib name; caller; block = 0 }

module Transport = Service.Transport

let test_codec_mixed_roundtrip () =
  let items =
    [|
      Transport.Call { Transport.session = 1; event = mk_event ~caller:"main" "read" };
      Transport.Query
        { Transport.q_session = 1; rows = 3; sql = "SELECT a FROM t WHERE a = 1" };
      Transport.Call { Transport.session = 2; event = mk_event ~caller:"main" "printf" };
    |]
  in
  let text = Transport.encode_all (module Transport.Text) items in
  match Transport.decode_all (module Transport.Text) text with
  | Error e -> Alcotest.failf "decode_all: %s" e
  | Ok items' ->
      Alcotest.(check bool) "mixed round-trip" true (items = items');
      Alcotest.(check int) "two of them calls" 2
        (List.length
           (List.filter
              (function Transport.Call _ -> true | Transport.Query _ -> false)
              (Array.to_list items')))

let fused_app () = Dataset.Ca_banking.app ()

let test_daemon_query_axis () =
  let app = fused_app () in
  let dataset = Adprom.Pipeline.collect app in
  let profile = Adprom.Pipeline.train dataset in
  let qprofile = Adprom.Pipeline.train_qsig app in
  let events =
    Array.init 6 (fun i ->
        Transport.Call
          { Transport.session = 7; event = mk_event ~caller:"main" (Printf.sprintf "sym%d" i) })
  in
  let items =
    Array.append events
      [|
        Transport.Query
          {
            Transport.q_session = 7;
            rows = 4000;
            sql = "SELECT id, name, balance FROM clients WHERE id = '1' OR '1' = '1'";
          };
        Transport.Query
          { Transport.q_session = 9; rows = 1; sql = "SELECT balance FROM clients WHERE id = 105" };
      |]
  in
  let outcome =
    Service.Replay.run
      (Service.Daemon.create ~shards:2 ~qsig_mode:Service.Daemon.Qsig_warn
         ~qsig_profile:qprofile profile)
      items
  in
  let report s =
    List.find
      (fun (r : Service.Daemon.session_report) -> r.Service.Daemon.session = s)
      outcome.Service.Replay.summary.Service.Daemon.sessions
  in
  Alcotest.(check int) "session 7 checked one query" 1 (report 7).Service.Daemon.qsig_checks;
  Alcotest.(check int) "session 7 query anomalous" 1 (report 7).Service.Daemon.qsig_anomalies;
  Alcotest.(check int) "query-only session reported" 1 (report 9).Service.Daemon.qsig_checks;
  Alcotest.(check int) "normal query stays quiet" 0 (report 9).Service.Daemon.qsig_anomalies;
  Alcotest.(check bool)
    "query incident recorded with the query axis" true
    (List.exists
       (fun (i : Service.Alerts.incident) ->
         i.Service.Alerts.session = 7
         && Service.Alerts.axis_of_source i.Service.Alerts.source
            = Service.Alerts.Query_axis)
       (Service.Alerts.incidents outcome.Service.Replay.alerts));
  Alcotest.(check bool)
    "fused axes name the query side" true
    (Service.Alerts.fused_axes outcome.Service.Replay.alerts ~session:7
     <> Service.Alerts.No_alarm)

let test_qsig_off_bit_for_bit () =
  (* the acceptance gate: with the axis off, a mixed stream yields
     byte-identical session reports to its call events alone *)
  let app = fused_app () in
  let dataset = Adprom.Pipeline.collect app in
  let profile = Adprom.Pipeline.train dataset in
  let analysis = dataset.Adprom.Pipeline.analysis in
  let traces =
    List.filteri (fun i _ -> i < 3) app.Adprom.Pipeline.test_cases
    |> List.map (fun tc -> fst (Adprom.Pipeline.run_case ~analysis app tc))
  in
  let rng = Mlkit.Rng.create 5 in
  let calls =
    Array.map (fun ev -> Transport.Call ev) (Adprom.Sessions.interleave ~rng traces)
  in
  let qlines =
    "q\t0\t4000\tSELECT id, name, balance FROM clients WHERE id = '1' OR '1' = '1'\n"
  in
  let mixed_text = Transport.encode_all (module Transport.Text) calls ^ qlines in
  let replay items =
    Service.Replay.run (Service.Daemon.create ~shards:2 profile) items
  in
  let pure = replay calls in
  match Transport.decode_all (module Transport.Text) mixed_text with
  | Error e -> Alcotest.failf "decode_all: %s" e
  | Ok mixed ->
      Alcotest.(check int) "the query line decoded"
        (Array.length calls + 1) (Array.length mixed);
      let off = replay mixed in
      Alcotest.(check bool)
        "session reports identical with qsig off" true
        (off.Service.Replay.summary.Service.Daemon.sessions
        = pure.Service.Replay.summary.Service.Daemon.sessions);
      Alcotest.(check int)
        "no incidents from the ignored query line"
        (Service.Alerts.count pure.Service.Replay.alerts)
        (Service.Alerts.count off.Service.Replay.alerts);
      let counter (o : Service.Replay.outcome) name =
        Service.Metrics.counter_value
          (Service.Metrics.counter o.Service.Replay.metrics name)
      in
      List.iter
        (fun name ->
          Alcotest.(check int) (name ^ " unchanged") (counter pure name)
            (counter off name))
        [ "adprom_events_offered_total"; "adprom_events_ingested_total" ]

let () =
  Alcotest.run "qsig"
    [
      ( "signature",
        [
          Alcotest.test_case "case/whitespace" `Quick test_signature_case_whitespace;
          Alcotest.test_case "IN arity classes" `Quick test_signature_in_arity_classes;
          Alcotest.test_case "multi-row INSERT" `Quick test_signature_multirow_insert;
          QCheck_alcotest.to_alcotest prop_signature_literal_invariance;
          QCheck_alcotest.to_alcotest prop_print_parse_roundtrip;
        ] );
      ( "widening",
        [ Alcotest.test_case "tautology and constants" `Quick test_widening_tautology ] );
      ( "constraints",
        [
          Alcotest.test_case "int policies" `Quick test_constraint_int_policies;
          Alcotest.test_case "band policies" `Quick test_constraint_band_policies;
          QCheck_alcotest.to_alcotest prop_policy_monotone_on_slots;
        ] );
      ( "profile",
        [
          Alcotest.test_case "save/load round-trip" `Quick test_profile_save_load_roundtrip;
          Alcotest.test_case "copy isolation" `Quick test_profile_copy_isolated;
        ] );
      ( "engine",
        [
          Alcotest.test_case "reasons" `Quick test_engine_reasons;
          QCheck_alcotest.to_alcotest prop_streaming_equals_batch;
          QCheck_alcotest.to_alcotest prop_enforce_superset_of_warn;
        ] );
      ( "service",
        [
          Alcotest.test_case "codec mixed round-trip" `Quick test_codec_mixed_roundtrip;
          Alcotest.test_case "daemon query axis" `Quick test_daemon_query_axis;
          Alcotest.test_case "qsig off is bit-for-bit" `Quick test_qsig_off_bit_for_bit;
        ] );
    ]
