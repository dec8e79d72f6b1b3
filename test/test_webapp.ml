(* Tests for the web-application support (the paper's Sec. VIII future
   work): the HTTP request-loop builtins, routing/response behaviour of
   the customer portal, and end-to-end detection of a web-borne
   injection. *)

module Parser = Applang.Parser
module Analyzer = Analysis.Analyzer
module Interp = Runtime.Interp
module Testcase = Runtime.Testcase
module Pipeline = Adprom.Pipeline

let run_requests src requests =
  let analysis = Analyzer.analyze (Parser.parse_program src) in
  let engine = Sqldb.Engine.create () in
  Interp.collect_trace ~analysis ~engine (Testcase.make ~requests "t")

let echo_server =
  {|
    fun main() {
      while (http_next_request()) {
        http_respond(200, strcat(strcat(http_method(), " "), http_path()));
        http_write(http_param("x"));
      }
      puts("done");
    }
  |}

let test_request_loop () =
  let _, out =
    run_requests echo_server
      [
        Testcase.get ~params:[ ("x", "one") ] "/a";
        Testcase.post ~params:[ ("x", "two") ] "/b";
      ]
  in
  Alcotest.(check bool) "ok" true (out.Interp.status = Ok ());
  Alcotest.(check string) "responses in order" "HTTP 200\nGET /a\noneHTTP 200\nPOST /b\ntwo"
    out.Interp.responses;
  Alcotest.(check string) "loop drains then continues" "done\n" out.Interp.stdout

let test_no_requests () =
  let _, out = run_requests echo_server [] in
  Alcotest.(check string) "empty response stream" "" out.Interp.responses

let test_missing_param_is_empty () =
  let _, out = run_requests echo_server [ Testcase.get "/a" ] in
  Alcotest.(check string) "missing param renders empty" "HTTP 200\nGET /a\n"
    out.Interp.responses

let test_http_sinks_labeled () =
  (* Responding with DB data labels the http_respond site. *)
  let src =
    {|
      fun main() {
        let conn = db_connect("pg");
        while (http_next_request()) {
          let r = pq_exec(conn, "SELECT name FROM t");
          http_respond(200, pq_getvalue(r, 0, 0));
        }
      }
    |}
  in
  let analysis = Analyzer.analyze (Parser.parse_program src) in
  Alcotest.(check int) "http_respond is a labeled DB-output site" 1
    (List.length
       analysis.Analyzer.front.Analysis.Front.taint.Analysis.Taint.labeled_blocks)

(* --- the portal ------------------------------------------------------------- *)

let portal = lazy (
  let app = Dataset.Web_portal.app () in
  let ds = Pipeline.collect app in
  (app, ds, Pipeline.train ds))

let portal_run requests =
  let app, ds, _ = Lazy.force portal in
  let tc = Testcase.make ~requests "t" in
  Pipeline.run_case ~analysis:ds.Pipeline.analysis app tc

let test_portal_routes () =
  let _, out =
    portal_run
      [
        Testcase.get ~params:[ ("id", "3") ] "/customer";
        Testcase.get ~params:[ ("id", "999") ] "/customer";
        Testcase.get "/nope";
        Testcase.get ~params:[ ("customer", "3") ] "/order";
        Testcase.post ~params:[ ("customer", "3"); ("amount", "50") ] "/order";
        Testcase.get "/report";
      ]
  in
  let has needle =
    let n = String.length needle and h = String.length out.Interp.responses in
    let rec probe i =
      i + n <= h && (String.sub out.Interp.responses i n = needle || probe (i + 1))
    in
    Alcotest.(check bool) (Printf.sprintf "response contains %S" needle) true (probe 0)
  in
  has "member03q";
  has "HTTP 404";
  has "HTTP 405";
  has "HTTP 201";
  has "orders=";
  Alcotest.(check bool) "order was recorded" true
    (List.exists (fun (p, _) -> p = "portal.log") out.Interp.files)

let test_portal_sessions_clean () =
  let app, ds, _ = Lazy.force portal in
  List.iter
    (fun tc ->
      let _, out = Pipeline.run_case ~analysis:ds.Pipeline.analysis app tc in
      match out.Interp.status with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" tc.Testcase.name msg)
    (List.filteri (fun i _ -> i < 10) app.Pipeline.test_cases)

let test_portal_injection_detected () =
  let app, ds, profile = Lazy.force portal in
  let engine = Adprom.Scoring.create profile in
  let classify tc =
    let trace, _ = Pipeline.run_case ~analysis:ds.Pipeline.analysis app tc in
    Adprom.Detector.worst (List.map snd (Adprom.Scoring.monitor engine trace))
  in
  Alcotest.(check bool) "normal session is normal" true
    (classify (List.hd app.Pipeline.test_cases) = Adprom.Detector.Normal);
  Alcotest.(check bool) "web injection raises the data-leak flag" true
    (classify Dataset.Web_portal.injection_session = Adprom.Detector.Data_leak)

let test_portal_injection_harvests () =
  let _, out = portal_run Dataset.Web_portal.injection_session.Testcase.requests in
  Alcotest.(check bool) "all 25 customers leaked" true (out.Interp.leaked_values >= 25)

let () =
  Alcotest.run "webapp"
    [
      ( "builtins",
        [
          Alcotest.test_case "request loop" `Quick test_request_loop;
          Alcotest.test_case "no requests" `Quick test_no_requests;
          Alcotest.test_case "missing parameter" `Quick test_missing_param_is_empty;
          Alcotest.test_case "response sinks are labeled" `Quick test_http_sinks_labeled;
        ] );
      ( "portal",
        [
          Alcotest.test_case "routing and responses" `Quick test_portal_routes;
          Alcotest.test_case "sessions run clean" `Quick test_portal_sessions_clean;
          Alcotest.test_case "injection detected" `Quick test_portal_injection_detected;
          Alcotest.test_case "injection harvests the table" `Quick test_portal_injection_harvests;
        ] );
    ]
