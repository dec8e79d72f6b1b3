let source =
  {|
// Customer-portal web application: a request loop dispatching to
// route handlers, PostgreSQL-style API underneath.
fun main() {
  let conn = db_connect("postgres");
  while (http_next_request()) {
    let path = http_path();
    if (strcmp(path, "/customer") == 0) {
      get_customer(conn);
    } else if (strcmp(path, "/search") == 0) {
      search_customers(conn);
    } else if (strcmp(path, "/order") == 0) {
      if (strcmp(http_method(), "POST") == 0) {
        create_order(conn);
      } else {
        http_respond(405, "method not allowed");
      }
    } else if (strcmp(path, "/report") == 0) {
      sales_report(conn);
    } else {
      http_respond(404, "not found");
    }
  }
  printf("server drained\n");
}

fun get_customer(conn) {
  let id = atoi(http_param("id"));
  let stmt = pq_prepare(conn, "SELECT id, name, email FROM customers WHERE id = ?");
  let res = pq_exec_prepared(conn, stmt, id);
  if (pq_ntuples(res) == 0) {
    http_respond(404, "no such customer");
    return;
  }
  http_respond(200, render_customer(res, 0));
}

fun render_customer(res, r) {
  let body = strcpy("{\"id\": ");
  body = strcat(body, pq_getvalue(res, r, 0));
  body = strcat(body, ", \"name\": \"");
  body = strcat(body, pq_getvalue(res, r, 1));
  body = strcat(body, "\", \"email\": \"");
  body = strcat(body, pq_getvalue(res, r, 2));
  body = strcat(body, "\"}");
  return body;
}

// VULNERABLE: the q parameter is concatenated into the LIKE pattern.
fun search_customers(conn) {
  let q = http_param("q");
  let sql = strcpy("SELECT id, name, email FROM customers WHERE name LIKE '%");
  sql = strcat(sql, q);
  sql = strcat(sql, "%'");
  let res = pq_exec(conn, sql);
  if (pq_result_status(res) != 0) {
    http_respond(400, "bad search");
    return;
  }
  let n = pq_ntuples(res);
  http_respond(200, strcat(to_string(n), " result(s)"));
  for (let r = 0; r < n; r = r + 1) {
    http_write(render_customer(res, r));
    http_write("\n");
  }
}

fun create_order(conn) {
  let customer = atoi(http_param("customer"));
  let amount = atoi(http_param("amount"));
  if (amount <= 0) {
    http_respond(400, "bad amount");
    return;
  }
  let check = pq_prepare(conn, "SELECT COUNT(*) FROM customers WHERE id = ?");
  let cres = pq_exec_prepared(conn, check, customer);
  if (atoi(pq_getvalue(cres, 0, 0)) == 0) {
    http_respond(404, "no such customer");
    return;
  }
  let idres = pq_exec(conn, "SELECT COUNT(*) FROM orders");
  let id = atoi(pq_getvalue(idres, 0, 0)) + 1;
  let stmt = pq_prepare(conn, "INSERT INTO orders (id, customer, amount) VALUES (?, ?, ?)");
  let ins = pq_exec_prepared(conn, stmt, id, customer, amount);
  log_request("order", id);
  http_respond(201, strcat("order ", to_string(id)));
}

fun sales_report(conn) {
  let count = pq_exec(conn, "SELECT COUNT(*) FROM orders");
  let volume = pq_exec(conn, "SELECT SUM(amount) FROM orders");
  let body = strcpy("orders=");
  body = strcat(body, pq_getvalue(count, 0, 0));
  body = strcat(body, " volume=");
  body = strcat(body, pq_getvalue(volume, 0, 0));
  http_respond(200, body);
  log_request("report", 0);
}

fun log_request(kind, id) {
  let f = fopen("portal.log", "a");
  fprintf(f, "%s %d\n", kind, id);
  fclose(f);
}
|}

let setup_db engine =
  let exec sql = ignore (Sqldb.Engine.exec engine sql) in
  exec "CREATE TABLE customers (id, name, email)";
  exec "CREATE TABLE orders (id, customer, amount)";
  for i = 1 to 25 do
    Printf.ksprintf exec
      "INSERT INTO customers VALUES (%d, 'member%02dq', 'c%d@example.org')" i i i
  done;
  for i = 1 to 15 do
    Printf.ksprintf exec "INSERT INTO orders VALUES (%d, %d, %d)" i
      (1 + (i mod 25))
      (20 + (i * 13 mod 200))
  done

let sessions ~count ~seed =
  let rng = Mlkit.Rng.create seed in
  let request i =
    match i with
    | 0 -> Runtime.Testcase.get ~params:[ ("id", string_of_int (1 + Mlkit.Rng.int rng 25)) ] "/customer"
    | 1 -> Runtime.Testcase.get ~params:[ ("id", "999") ] "/customer"
    | 2 ->
        Runtime.Testcase.get
          ~params:[ ("q", Printf.sprintf "member%02dq" (1 + Mlkit.Rng.int rng 25)) ]
          "/search"
    | 3 -> Runtime.Testcase.get ~params:[ ("q", "zebra") ] "/search" (* no hits *)
    | 4 ->
        Runtime.Testcase.post
          ~params:
            [ ("customer", string_of_int (1 + Mlkit.Rng.int rng 25));
              ("amount", string_of_int (10 + Mlkit.Rng.int rng 150)) ]
          "/order"
    | 5 -> Runtime.Testcase.post ~params:[ ("customer", "3"); ("amount", "0") ] "/order"
    | 6 -> Runtime.Testcase.get ~params:[ ("customer", "3") ] "/order" (* wrong method *)
    | 7 -> Runtime.Testcase.get "/report"
    | _ -> Runtime.Testcase.get "/favicon.ico" (* 404 *)
  in
  List.init count (fun case ->
      let n = 1 + Mlkit.Rng.int rng 5 in
      let requests = List.init n (fun k -> request ((case + (k * 3)) mod 9)) in
      Runtime.Testcase.make ~requests ~seed:case (Printf.sprintf "session-%03d" case))

let injection_session =
  Runtime.Testcase.make
    ~requests:[ Runtime.Testcase.get ~params:[ ("q", "%' OR '1'='1") ] "/search" ]
    "session-injection"

let app () =
  {
    Adprom.Pipeline.name = "WebPortal (customer portal)";
    source;
    dbms = "PostgreSQL";
    setup_db;
    test_cases = sessions ~count:60 ~seed:9001;
  }
