let source =
  {|
// Small banking client (MySQL-style API). The lookup handler is
// deliberately built by string concatenation: no prepared statement.
fun main() {
  let conn = db_connect("mysql");
  printf("== First AppLang Bank ==\n");
  let running = 1;
  while (running == 1) {
    printf("1) lookup  2) deposit  3) withdraw  4) transfer  5) statement  6) audit  7) open  8) close  9) loan  10) interest  11) alerts  0) quit\n");
    let choice = scanf_int();
    if (choice == 1) {
      lookup_client(conn);
    } else if (choice == 2) {
      deposit(conn);
    } else if (choice == 3) {
      withdraw(conn);
    } else if (choice == 4) {
      transfer(conn);
    } else if (choice == 5) {
      statement(conn);
    } else if (choice == 6) {
      audit_totals(conn);
    } else if (choice == 7) {
      open_account(conn);
    } else if (choice == 8) {
      close_account(conn);
    } else if (choice == 9) {
      loan_request(conn);
    } else if (choice == 10) {
      interest_sweep(conn);
    } else if (choice == 11) {
      alerts_report(conn);
    } else {
      running = 0;
    }
  }
  printf("bye\n");
}

fun open_account(conn) {
  printf("name: ");
  let name = scanf();
  printf("initial deposit: ");
  let amount = scanf_int();
  if (strlen(name) == 0 || amount < 0) {
    printf("invalid application\n");
    return;
  }
  let idstmt = mysql_prepare(conn, "SELECT COUNT(*) FROM clients");
  let res = mysql_stmt_execute(conn, idstmt);
  let row = mysql_fetch_row(res);
  let id = atoi(row[0]) + 100;
  let stmt = mysql_prepare(conn, "INSERT INTO clients (id, name, balance) VALUES (?, ?, ?)");
  let ins = mysql_stmt_execute(conn, stmt, id, name, amount);
  printf("opened account %d\n", id);
  record_tx(conn, id, amount, "open");
}

fun close_account(conn) {
  printf("account no: ");
  let acc = scanf_int();
  let balance = fetch_balance(conn, acc);
  if (balance < 0) {
    printf("no such account\n");
    return;
  }
  if (balance > 0) {
    printf("paying out %d\n", balance);
    record_tx(conn, acc, balance, "payout");
  }
  let stmt = mysql_prepare(conn, "DELETE FROM clients WHERE id = ?");
  let res = mysql_stmt_execute(conn, stmt, acc);
  printf("account %d closed\n", acc);
  log_tx("close", acc, 0);
}

fun loan_request(conn) {
  printf("account no: ");
  let acc = scanf_int();
  printf("amount: ");
  let amount = scanf_int();
  let balance = fetch_balance(conn, acc);
  if (balance < 0) {
    printf("no such account\n");
    return;
  }
  if (amount <= 0 || amount > balance * 3) {
    printf("loan denied\n");
    log_tx("loan-denied", acc, amount);
    return;
  }
  let idstmt = mysql_prepare(conn, "SELECT COUNT(*) FROM loans");
  let res = mysql_stmt_execute(conn, idstmt);
  let row = mysql_fetch_row(res);
  let id = atoi(row[0]) + 1;
  let stmt = mysql_prepare(conn, "INSERT INTO loans (id, acc, amount, status) VALUES (?, ?, ?, 'open')");
  let ins = mysql_stmt_execute(conn, stmt, id, acc, amount);
  set_balance(conn, acc, balance + amount);
  record_tx(conn, acc, amount, "loan");
  printf("loan %d granted\n", id);
}

// month-end job: 1% interest on every account
fun interest_sweep(conn) {
  let stmt = mysql_prepare(conn, "SELECT id, balance FROM clients ORDER BY id");
  let res = mysql_stmt_execute(conn, stmt);
  let count = 0;
  let row = mysql_fetch_row(res);
  while (row != null) {
    let balance = atoi(row[1]);
    let interest = balance / 100;
    if (interest > 0) {
      set_balance(conn, atoi(row[0]), balance + interest);
      count = count + 1;
    }
    row = mysql_fetch_row(res);
  }
  printf("interest applied to %d account(s)\n", count);
  log_tx("interest", 0, count);
}

// compliance: large transactions written to the alerts file
fun alerts_report(conn) {
  let stmt = mysql_prepare(conn, "SELECT id, acc, amount FROM transactions WHERE amount >= ? ORDER BY amount DESC");
  let res = mysql_stmt_execute(conn, stmt, 200);
  let row = mysql_fetch_row(res);
  if (row == null) {
    printf("no large transactions\n");
    return;
  }
  let f = fopen("alerts.log", "w");
  let count = 0;
  while (row != null) {
    fprintf(f, "tx#%s acc=%s amount=%s\n", row[0], row[1], row[2]);
    count = count + 1;
    row = mysql_fetch_row(res);
  }
  fclose(f);
  printf("%d alert(s) written\n", count);
}

// VULNERABLE: concatenates raw input into the query string.
fun lookup_client(conn) {
  printf("account no: ");
  let acc = scanf();
  let q = strcpy("SELECT id, name, balance FROM clients WHERE id='");
  q = strcat(q, acc);
  q = strcat(q, "';");
  if (mysql_query(conn, q) != 0) {
    printf("query failed\n");
    return;
  }
  let res = mysql_store_result(conn);
  let row = mysql_fetch_row(res);
  if (row == null) {
    printf("no such client\n");
  }
  while (row != null) {
    printf("client %s  name=%s  balance=%s\n", row[0], row[1], row[2]);
    row = mysql_fetch_row(res);
  }
}

fun deposit(conn) {
  printf("account no: ");
  let acc = scanf_int();
  printf("amount: ");
  let amount = scanf_int();
  if (amount <= 0) {
    printf("invalid amount\n");
    return;
  }
  let balance = fetch_balance(conn, acc);
  if (balance < 0) {
    printf("no such account\n");
    return;
  }
  set_balance(conn, acc, balance + amount);
  record_tx(conn, acc, amount, "deposit");
  printf("deposited %d\n", amount);
}

fun withdraw(conn) {
  printf("account no: ");
  let acc = scanf_int();
  printf("amount: ");
  let amount = scanf_int();
  let balance = fetch_balance(conn, acc);
  if (balance < 0) {
    printf("no such account\n");
    return;
  }
  if (amount > balance) {
    printf("insufficient funds\n");
    return;
  }
  set_balance(conn, acc, balance - amount);
  record_tx(conn, acc, amount, "withdraw");
  printf("withdrew %d\n", amount);
}

fun transfer(conn) {
  printf("from account: ");
  let src = scanf_int();
  printf("to account: ");
  let dst = scanf_int();
  printf("amount: ");
  let amount = scanf_int();
  let from_balance = fetch_balance(conn, src);
  let to_balance = fetch_balance(conn, dst);
  if (from_balance < 0 || to_balance < 0) {
    printf("unknown account\n");
    return;
  }
  if (amount > from_balance) {
    printf("insufficient funds\n");
    return;
  }
  set_balance(conn, src, from_balance - amount);
  set_balance(conn, dst, to_balance + amount);
  record_tx(conn, src, amount, "transfer-out");
  record_tx(conn, dst, amount, "transfer-in");
  printf("transferred %d\n", amount);
}

fun statement(conn) {
  printf("account no: ");
  let acc = scanf_int();
  let stmt = mysql_prepare(conn,
    "SELECT id, amount, kind FROM transactions WHERE acc = ? ORDER BY id DESC LIMIT 10");
  let res = mysql_stmt_execute(conn, stmt, acc);
  let n = mysql_num_rows(res);
  printf("last %d transaction(s)\n", n);
  let row = mysql_fetch_row(res);
  while (row != null) {
    printf("  tx#%s %s %s\n", row[0], row[1], row[2]);
    row = mysql_fetch_row(res);
  }
}

fun audit_totals(conn) {
  let stmt = mysql_prepare(conn, "SELECT COUNT(*) FROM transactions");
  let res = mysql_stmt_execute(conn, stmt);
  let row = mysql_fetch_row(res);
  let sumstmt = mysql_prepare(conn, "SELECT SUM(amount) FROM transactions");
  let sumres = mysql_stmt_execute(conn, sumstmt);
  let sumrow = mysql_fetch_row(sumres);
  let f = fopen("audit.log", "a");
  if (row != null) {
    fprintf(f, "transactions=%s\n", row[0]);
  }
  if (sumrow != null) {
    fprintf(f, "volume=%s\n", sumrow[0]);
  }
  fclose(f);
  printf("audit written\n");
}

fun fetch_balance(conn, acc) {
  let stmt = mysql_prepare(conn, "SELECT balance FROM clients WHERE id = ?");
  let res = mysql_stmt_execute(conn, stmt, acc);
  let row = mysql_fetch_row(res);
  if (row == null) {
    return -1;
  }
  return atoi(row[0]);
}

fun set_balance(conn, acc, balance) {
  let stmt = mysql_prepare(conn, "UPDATE clients SET balance = ? WHERE id = ?");
  let res = mysql_stmt_execute(conn, stmt, balance, acc);
  return mysql_num_rows(res);
}

fun record_tx(conn, acc, amount, kind) {
  let countstmt = mysql_prepare(conn, "SELECT COUNT(*) FROM transactions");
  let res = mysql_stmt_execute(conn, countstmt);
  let row = mysql_fetch_row(res);
  let id = atoi(row[0]) + 1;
  let stmt = mysql_prepare(conn, "INSERT INTO transactions (id, acc, amount, kind) VALUES (?, ?, ?, ?)");
  let ins = mysql_stmt_execute(conn, stmt, id, acc, amount, kind);
  log_tx(kind, acc, amount);
  return mysql_num_rows(ins);
}

fun log_tx(kind, acc, amount) {
  let f = fopen("bank.log", "a");
  fprintf(f, "%s acc=%d amount=%d\n", kind, acc, amount);
  fclose(f);
}
|}

let setup_db engine =
  let exec sql = ignore (Sqldb.Engine.exec engine sql) in
  exec "CREATE TABLE clients (id, name, balance)";
  exec "CREATE TABLE transactions (id, acc, amount, kind)";
  exec "CREATE TABLE loans (id, acc, amount, status)";
  for i = 0 to 29 do
    Printf.ksprintf exec "INSERT INTO clients VALUES (%d, 'client%d', %d)" (100 + i) i
      (500 + (i * 137))
  done;
  for i = 0 to 59 do
    Printf.ksprintf exec "INSERT INTO transactions VALUES (%d, %d, %d, '%s')" (i + 1)
      (100 + (i mod 30))
      (10 + (i * 13 mod 400))
      (if i mod 2 = 0 then "deposit" else "withdraw")
  done

let tautology = "1' OR '1'='1"

let test_cases ~count ~seed =
  let rng = Mlkit.Rng.create seed in
  let acc () = string_of_int (100 + Mlkit.Rng.int rng 30) in
  let op i =
    match i with
    | 0 -> [ "1"; acc () ] (* lookup, hit *)
    | 1 -> [ "1"; "999" ] (* lookup, miss *)
    | 2 -> [ "2"; acc (); string_of_int (1 + Mlkit.Rng.int rng 200) ]
    | 3 -> [ "2"; acc (); "0" ] (* invalid amount *)
    | 4 -> [ "3"; acc (); string_of_int (1 + Mlkit.Rng.int rng 100) ]
    | 5 -> [ "3"; acc (); "100000" ] (* insufficient *)
    | 6 -> [ "4"; acc (); acc (); string_of_int (1 + Mlkit.Rng.int rng 50) ]
    | 7 -> [ "4"; "999"; acc (); "10" ] (* unknown account *)
    | 8 -> [ "5"; acc () ]
    | 9 -> [ "6" ]
    | 10 -> [ "7"; Printf.sprintf "newclient%d" (Mlkit.Rng.int rng 40); string_of_int (Mlkit.Rng.int rng 400) ]
    | 11 -> [ "7"; ""; "50" ] (* invalid application *)
    | 12 -> [ "8"; acc () ]
    | 13 -> [ "8"; "999" ] (* close unknown *)
    | 14 -> [ "9"; acc (); string_of_int (1 + Mlkit.Rng.int rng 300) ]
    | 15 -> [ "9"; acc (); "100000" ] (* loan denied *)
    | 16 -> [ "10" ]
    | _ -> [ "11" ]
  in
  List.init count (fun case ->
      let ops = 1 + Mlkit.Rng.int rng 4 in
      let script =
        List.concat (List.init ops (fun k -> op ((case + (k * 7)) mod 18))) @ [ "0" ]
      in
      Runtime.Testcase.make ~input:script ~seed:case (Printf.sprintf "bank-%03d" case))

let poison_lookup tc =
  { tc with Runtime.Testcase.input = [ "1"; tautology; "0" ];
    Runtime.Testcase.name = tc.Runtime.Testcase.name ^ "+sqli" }

let app () =
  {
    Adprom.Pipeline.name = "App_b (banking)";
    source;
    dbms = "MySQL";
    setup_db;
    test_cases = test_cases ~count:73 ~seed:7002;
  }
