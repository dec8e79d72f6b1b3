let source =
  {|
// Supermarket management system (MySQL-style API).
fun main() {
  let conn = db_connect("mysql");
  printf("== SuperMarket ==\n");
  let running = 1;
  while (running == 1) {
    print_menu();
    let choice = scanf_int();
    if (choice == 1) {
      sell_item(conn);
    } else if (choice == 2) {
      add_item(conn);
    } else if (choice == 3) {
      restock(conn);
    } else if (choice == 4) {
      price_lookup(conn);
    } else if (choice == 5) {
      inventory_report(conn);
    } else if (choice == 6) {
      low_stock_report(conn);
    } else if (choice == 7) {
      sales_summary(conn);
    } else if (choice == 8) {
      supplier_list(conn);
    } else if (choice == 9) {
      return_item(conn);
    } else if (choice == 10) {
      apply_promotion(conn);
    } else if (choice == 11) {
      place_order(conn);
    } else if (choice == 12) {
      receive_order(conn);
    } else if (choice == 13) {
      top_sellers(conn);
    } else if (choice == 14) {
      shelf_audit(conn);
    } else {
      running = 0;
    }
  }
  printf("closing register\n");
}

fun print_menu() {
  printf("1) sell  2) add item  3) restock  4) price  5) inventory  6) low stock  7) sales  8) suppliers\n");
  printf("9) return  10) promotion  11) order  12) receive  13) top sellers  14) shelf audit  0) quit\n");
}

fun return_item(conn) {
  printf("sale id: ");
  let sale = scanf_int();
  let stmt = mysql_prepare(conn, "SELECT item, qty, total FROM sales WHERE id = ?");
  let res = mysql_stmt_execute(conn, stmt, sale);
  let row = mysql_fetch_row(res);
  if (row == null) {
    printf("unknown sale\n");
    return;
  }
  let item = atoi(row[0]);
  let qty = atoi(row[1]);
  let lookup = mysql_prepare(conn, "SELECT stock FROM items WHERE id = ?");
  let stockres = mysql_stmt_execute(conn, lookup, item);
  let stockrow = mysql_fetch_row(stockres);
  if (stockrow != null) {
    update_stock(conn, item, atoi(stockrow[0]) + qty);
  }
  let del = mysql_prepare(conn, "DELETE FROM sales WHERE id = ?");
  let done_ = mysql_stmt_execute(conn, del, sale);
  printf("refunded %s\n", row[2]);
  log_event("return", sale);
}

fun apply_promotion(conn) {
  printf("category: ");
  let cat = scanf();
  printf("percent off: ");
  let pct = scanf_int();
  if (pct <= 0 || pct >= 90) {
    printf("invalid discount\n");
    return;
  }
  let stmt = mysql_prepare(conn, "SELECT id, price FROM items WHERE category = ?");
  let res = mysql_stmt_execute(conn, stmt, cat);
  let count = 0;
  let row = mysql_fetch_row(res);
  while (row != null) {
    let price = atoi(row[1]);
    let cut = price * pct / 100;
    let upd = mysql_prepare(conn, "UPDATE items SET price = ? WHERE id = ?");
    let ok = mysql_stmt_execute(conn, upd, price - cut, atoi(row[0]));
    count = count + 1;
    row = mysql_fetch_row(res);
  }
  printf("promotion applied to %d item(s)\n", count);
  log_event("promotion", count);
}

fun place_order(conn) {
  printf("supplier id: ");
  let supplier = scanf_int();
  printf("item id: ");
  let item = scanf_int();
  printf("qty: ");
  let qty = scanf_int();
  if (qty <= 0) {
    printf("invalid quantity\n");
    return;
  }
  let idstmt = mysql_prepare(conn, "SELECT COUNT(*) FROM orders");
  let res = mysql_stmt_execute(conn, idstmt);
  let row = mysql_fetch_row(res);
  let id = atoi(row[0]) + 1;
  let stmt = mysql_prepare(conn,
    "INSERT INTO orders (id, supplier, item, qty, status) VALUES (?, ?, ?, ?, 'pending')");
  let ins = mysql_stmt_execute(conn, stmt, id, supplier, item, qty);
  printf("order %d placed\n", id);
  log_event("order", id);
}

fun receive_order(conn) {
  printf("order id: ");
  let order = scanf_int();
  let stmt = mysql_prepare(conn, "SELECT item, qty, status FROM orders WHERE id = ?");
  let res = mysql_stmt_execute(conn, stmt, order);
  let row = mysql_fetch_row(res);
  if (row == null) {
    printf("unknown order\n");
    return;
  }
  if (strcmp(row[2], "pending") != 0) {
    printf("order already received\n");
    return;
  }
  let item = atoi(row[0]);
  let lookup = mysql_prepare(conn, "SELECT stock FROM items WHERE id = ?");
  let stockres = mysql_stmt_execute(conn, lookup, item);
  let stockrow = mysql_fetch_row(stockres);
  if (stockrow != null) {
    update_stock(conn, item, atoi(stockrow[0]) + atoi(row[1]));
  }
  let upd = mysql_prepare(conn, "UPDATE orders SET status = 'received' WHERE id = ?");
  let ok = mysql_stmt_execute(conn, upd, order);
  printf("order %d received\n", order);
  log_event("receive", order);
}

fun top_sellers(conn) {
  let stmt = mysql_prepare(conn, "SELECT item, qty, total FROM sales ORDER BY qty DESC LIMIT 3");
  let res = mysql_stmt_execute(conn, stmt);
  printf("top sellers:\n");
  let rank = 1;
  let row = mysql_fetch_row(res);
  while (row != null) {
    printf("  #%d item %s sold %s (total %s)\n", rank, row[0], row[1], row[2]);
    rank = rank + 1;
    row = mysql_fetch_row(res);
  }
}

// physical stock-take: compare recorded stock against a scanned count
fun shelf_audit(conn) {
  printf("item id: ");
  let item = scanf_int();
  printf("counted: ");
  let counted = scanf_int();
  let stmt = mysql_prepare(conn, "SELECT name, stock FROM items WHERE id = ?");
  let res = mysql_stmt_execute(conn, stmt, item);
  let row = mysql_fetch_row(res);
  if (row == null) {
    printf("unknown item\n");
    return;
  }
  let recorded = atoi(row[1]);
  if (counted == recorded) {
    printf("%s: stock matches (%d)\n", row[0], recorded);
  } else {
    let f = fopen("shrinkage.log", "a");
    fprintf(f, "item %d: recorded %d counted %d\n", item, recorded, counted);
    fclose(f);
    update_stock(conn, item, counted);
    printf("%s: adjusted %d -> %d\n", row[0], recorded, counted);
  }
}

fun sell_item(conn) {
  printf("item id: ");
  let item = scanf_int();
  printf("qty: ");
  let qty = scanf_int();
  if (qty <= 0) {
    printf("invalid quantity\n");
    return;
  }
  let stmt = mysql_prepare(conn, "SELECT name, price, stock FROM items WHERE id = ?");
  let res = mysql_stmt_execute(conn, stmt, item);
  let row = mysql_fetch_row(res);
  if (row == null) {
    printf("unknown item\n");
    return;
  }
  let stock = atoi(row[2]);
  if (stock < qty) {
    printf("only %d in stock\n", stock);
    return;
  }
  let price = atoi(row[1]);
  let total = price * qty;
  printf("member? (y/n): ");
  let member = scanf();
  update_stock(conn, item, stock - qty);
  record_sale(conn, item, qty, total);
  if (strcmp(member, "y") == 0) {
    print_receipt_member(row[0], qty, total - (total / 10));
  } else {
    print_receipt(row[0], qty, total);
  }
}

fun print_receipt(name, qty, total) {
  printf("----------------\n");
  printf("%d x %s\n", qty, name);
  printf("TOTAL: %d\n", total);
  printf("----------------\n");
}

fun print_receipt_member(name, qty, total) {
  printf("----------------\n");
  printf("%d x %s\n", qty, name);
  printf("member price applied\n");
  printf("TOTAL: %d\n", total);
  printf("----------------\n");
}

fun add_item(conn) {
  printf("name: ");
  let name = scanf();
  printf("price: ");
  let price = scanf_int();
  printf("initial stock: ");
  let stock = scanf_int();
  printf("category: ");
  let cat = scanf();
  if (price <= 0) {
    printf("invalid price\n");
    return;
  }
  let idres = mysql_prepare(conn, "SELECT COUNT(*) FROM items");
  let res = mysql_stmt_execute(conn, idres);
  let row = mysql_fetch_row(res);
  let id = atoi(row[0]) + 1;
  let stmt = mysql_prepare(conn,
    "INSERT INTO items (id, name, price, stock, category) VALUES (?, ?, ?, ?, ?)");
  let ins = mysql_stmt_execute(conn, stmt, id, name, price, stock, cat);
  printf("added item %d\n", id);
  log_event("add-item", id);
}

fun restock(conn) {
  printf("item id: ");
  let item = scanf_int();
  printf("qty: ");
  let qty = scanf_int();
  let stmt = mysql_prepare(conn, "SELECT stock FROM items WHERE id = ?");
  let res = mysql_stmt_execute(conn, stmt, item);
  let row = mysql_fetch_row(res);
  if (row == null) {
    printf("unknown item\n");
    return;
  }
  update_stock(conn, item, atoi(row[0]) + qty);
  printf("restocked\n");
  log_event("restock", item);
}

fun price_lookup(conn) {
  printf("item name: ");
  let name = scanf();
  let q = strcpy("SELECT id, name, price FROM items WHERE name LIKE '%");
  q = strcat(q, name);
  q = strcat(q, "%'");
  if (mysql_query(conn, q) != 0) {
    printf("lookup failed\n");
    return;
  }
  let res = mysql_store_result(conn);
  let row = mysql_fetch_row(res);
  if (row == null) {
    printf("no match\n");
  }
  while (row != null) {
    printf("#%s %s costs %s\n", row[0], row[1], row[2]);
    row = mysql_fetch_row(res);
  }
}

fun inventory_report(conn) {
  let stmt = mysql_prepare(conn, "SELECT id, name, stock FROM items ORDER BY id");
  let res = mysql_stmt_execute(conn, stmt);
  let n = mysql_num_rows(res);
  printf("inventory: %d item(s)\n", n);
  let row = mysql_fetch_row(res);
  while (row != null) {
    printf("  #%s %s stock=%s\n", row[0], row[1], row[2]);
    row = mysql_fetch_row(res);
  }
  log_event("inventory", n);
}

fun low_stock_report(conn) {
  let stmt = mysql_prepare(conn, "SELECT id, name, stock FROM items WHERE stock < ?");
  let res = mysql_stmt_execute(conn, stmt, 10);
  let row = mysql_fetch_row(res);
  if (row == null) {
    printf("stock levels ok\n");
    return;
  }
  let f = fopen("reorder.txt", "w");
  while (row != null) {
    fprintf(f, "reorder #%s %s (have %s)\n", row[0], row[1], row[2]);
    row = mysql_fetch_row(res);
  }
  fclose(f);
  printf("reorder list written\n");
}

fun sales_summary(conn) {
  let stmt = mysql_prepare(conn, "SELECT COUNT(*) FROM sales");
  let res = mysql_stmt_execute(conn, stmt);
  let row = mysql_fetch_row(res);
  printf("sales to date: %s\n", row[0]);
  let revstmt = mysql_prepare(conn, "SELECT SUM(total) FROM sales");
  let revres = mysql_stmt_execute(conn, revstmt);
  let revrow = mysql_fetch_row(revres);
  printf("revenue: %s\n", revrow[0]);
  let avgstmt = mysql_prepare(conn, "SELECT AVG(total) FROM sales");
  let avgres = mysql_stmt_execute(conn, avgstmt);
  let avgrow = mysql_fetch_row(avgres);
  printf("average basket: %s\n", avgrow[0]);
  let big = mysql_prepare(conn, "SELECT id, total FROM sales WHERE total >= ? ORDER BY total DESC LIMIT 5");
  let bigres = mysql_stmt_execute(conn, big, 100);
  let r = mysql_fetch_row(bigres);
  while (r != null) {
    printf("  big sale #%s total=%s\n", r[0], r[1]);
    r = mysql_fetch_row(bigres);
  }
}

fun supplier_list(conn) {
  let stmt = mysql_prepare(conn, "SELECT id, name, category FROM suppliers ORDER BY name");
  let res = mysql_stmt_execute(conn, stmt);
  let row = mysql_fetch_row(res);
  while (row != null) {
    printf("supplier %s: %s (%s)\n", row[0], row[1], row[2]);
    row = mysql_fetch_row(res);
  }
  printf("end of list\n");
}

fun update_stock(conn, item, stock) {
  let stmt = mysql_prepare(conn, "UPDATE items SET stock = ? WHERE id = ?");
  let res = mysql_stmt_execute(conn, stmt, stock, item);
  return mysql_num_rows(res);
}

fun record_sale(conn, item, qty, total) {
  let idstmt = mysql_prepare(conn, "SELECT COUNT(*) FROM sales");
  let res = mysql_stmt_execute(conn, idstmt);
  let row = mysql_fetch_row(res);
  let id = atoi(row[0]) + 1;
  let stmt = mysql_prepare(conn,
    "INSERT INTO sales (id, item, qty, total) VALUES (?, ?, ?, ?)");
  let ins = mysql_stmt_execute(conn, stmt, id, item, qty, total);
  log_event("sale", id);
  return mysql_num_rows(ins);
}

fun log_event(kind, id) {
  let f = fopen("market.log", "a");
  fprintf(f, "%s %d\n", kind, id);
  fclose(f);
}
|}

let setup_db engine =
  let exec sql = ignore (Sqldb.Engine.exec engine sql) in
  exec "CREATE TABLE items (id, name, price, stock, category)";
  exec "CREATE TABLE sales (id, item, qty, total)";
  exec "CREATE TABLE suppliers (id, name, category)";
  exec "CREATE TABLE orders (id, supplier, item, qty, status)";
  let cats = [| "produce"; "dairy"; "bakery"; "frozen" |] in
  for i = 1 to 40 do
    Printf.ksprintf exec
      "INSERT INTO items VALUES (%d, 'item%d', %d, %d, '%s')" i i
      (2 + (i * 3 mod 80))
      (if i mod 7 = 0 then 4 else 20 + (i mod 30))
      cats.(i mod 4)
  done;
  for i = 1 to 25 do
    Printf.ksprintf exec "INSERT INTO sales VALUES (%d, %d, %d, %d)" i
      (1 + (i mod 40)) (1 + (i mod 5))
      (10 + (i * 17 mod 300))
  done;
  for i = 1 to 6 do
    Printf.ksprintf exec "INSERT INTO suppliers VALUES (%d, 'supplier%d', '%s')" i i
      cats.(i mod 4)
  done

let test_cases ~count ~seed =
  let rng = Mlkit.Rng.create seed in
  let item () = string_of_int (1 + Mlkit.Rng.int rng 40) in
  let op i =
    match i with
    | 0 ->
        [ "1"; item (); string_of_int (1 + Mlkit.Rng.int rng 3);
          (if Mlkit.Rng.bool rng then "y" else "n") ] (* sell *)
    | 1 -> [ "1"; item (); "0" ] (* invalid qty *)
    | 2 -> [ "1"; "999"; "2" ] (* unknown item *)
    | 3 ->
        [ "2"; Printf.sprintf "gadget%d" (Mlkit.Rng.int rng 100);
          string_of_int (1 + Mlkit.Rng.int rng 90);
          string_of_int (Mlkit.Rng.int rng 50); "produce" ]
    | 4 -> [ "3"; item (); string_of_int (5 + Mlkit.Rng.int rng 40) ] (* restock *)
    | 5 -> [ "4"; Printf.sprintf "item%d" (1 + Mlkit.Rng.int rng 40) ] (* price *)
    | 6 -> [ "5" ]
    | 7 -> [ "6" ]
    | 8 -> [ "7" ]
    | 9 -> [ "8" ]
    | 10 -> [ "9"; string_of_int (1 + Mlkit.Rng.int rng 25) ] (* return a sale *)
    | 11 -> [ "9"; "999" ] (* unknown sale *)
    | 12 -> [ "10"; "dairy"; string_of_int (5 + Mlkit.Rng.int rng 30) ]
    | 13 -> [ "10"; "produce"; "95" ] (* invalid discount *)
    | 14 -> [ "11"; string_of_int (1 + Mlkit.Rng.int rng 6); item (); string_of_int (5 + Mlkit.Rng.int rng 30) ]
    | 15 -> [ "12"; "1" ] (* receive the first order, often unknown *)
    | 16 -> [ "13" ]
    | _ -> [ "14"; item (); string_of_int (Mlkit.Rng.int rng 40) ]
  in
  List.init count (fun case ->
      let ops = 1 + Mlkit.Rng.int rng 3 in
      let script =
        List.concat (List.init ops (fun k -> op ((case + (k * 5)) mod 18))) @ [ "0" ]
      in
      Runtime.Testcase.make ~input:script ~seed:case (Printf.sprintf "market-%03d" case))

let app () =
  {
    Adprom.Pipeline.name = "App_s (supermarket)";
    source;
    dbms = "MySQL";
    setup_db;
    test_cases = test_cases ~count:36 ~seed:7003;
  }
