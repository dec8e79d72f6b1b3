let source =
  {|
// Mini hospital management client (PostgreSQL-style API).
fun main() {
  let conn = db_connect("postgres");
  printf("== Hospital Management ==\n");
  let running = 1;
  while (running == 1) {
    print_menu();
    let choice = scanf_int();
    if (choice == 1) {
      register_patient(conn);
    } else if (choice == 2) {
      view_patient(conn);
    } else if (choice == 3) {
      list_appointments(conn);
    } else if (choice == 4) {
      update_diagnosis(conn);
    } else if (choice == 5) {
      discharge_patient(conn);
    } else if (choice == 6) {
      department_report(conn);
    } else {
      running = 0;
    }
  }
  printf("goodbye\n");
}

fun print_menu() {
  printf("1) register patient\n");
  printf("2) view patient\n");
  printf("3) appointments\n");
  printf("4) update diagnosis\n");
  printf("5) discharge\n");
  printf("6) department report\n");
  printf("0) quit\n");
}

fun register_patient(conn) {
  printf("name: ");
  let name = scanf();
  printf("age: ");
  let age = scanf_int();
  printf("department: ");
  let dept = scanf();
  if (strlen(name) == 0) {
    printf("invalid name\n");
    return;
  }
  let countres = pq_exec(conn, "SELECT COUNT(*) FROM patients");
  let id = atoi(pq_getvalue(countres, 0, 0)) + 1000;
  let stmt = pq_prepare(conn,
    "INSERT INTO patients (id, name, age, dept, diagnosis) VALUES (?, ?, ?, ?, 'none')");
  let res = pq_exec_prepared(conn, stmt, id, name, age, dept);
  if (pq_result_status(res) == 0) {
    printf("registered patient %d\n", id);
    log_action("register", id);
  } else {
    printf("registration failed\n");
  }
}

fun view_patient(conn) {
  printf("patient id: ");
  let pid = scanf();
  let q = strcat(strcat(
    "SELECT id, name, age, dept, diagnosis FROM patients WHERE id = '", pid), "'");
  let res = pq_exec(conn, q);
  let rows = pq_ntuples(res);
  if (rows == 0) {
    printf("no such patient\n");
  } else {
    for (let r = 0; r < rows; r = r + 1) {
      print_patient(res, r);
    }
  }
  log_action("view", 0);
}

fun print_patient(res, r) {
  printf("id=%s name=%s age=%s dept=%s diagnosis=%s\n",
    pq_getvalue(res, r, 0), pq_getvalue(res, r, 1), pq_getvalue(res, r, 2),
    pq_getvalue(res, r, 3), pq_getvalue(res, r, 4));
}

fun list_appointments(conn) {
  printf("patient id: ");
  let pid = scanf_int();
  let stmt = pq_prepare(conn,
    "SELECT id, day, dept FROM appointments WHERE patient_id = ? ORDER BY day");
  let res = pq_exec_prepared(conn, stmt, pid);
  let rows = pq_ntuples(res);
  printf("%d appointment(s)\n", rows);
  for (let r = 0; r < rows; r = r + 1) {
    printf("  #%s day %s at %s\n",
      pq_getvalue(res, r, 0), pq_getvalue(res, r, 1), pq_getvalue(res, r, 2));
  }
}

fun update_diagnosis(conn) {
  printf("patient id: ");
  let pid = scanf_int();
  printf("diagnosis: ");
  let diag = scanf();
  let stmt = pq_prepare(conn, "UPDATE patients SET diagnosis = ? WHERE id = ?");
  let res = pq_exec_prepared(conn, stmt, diag, pid);
  if (pq_result_status(res) == 0) {
    printf("updated\n");
    log_action("diagnose", pid);
  } else {
    printf("update failed\n");
  }
}

fun discharge_patient(conn) {
  printf("patient id: ");
  let pid = scanf_int();
  printf("confirm (y/n): ");
  let answer = scanf();
  if (strcmp(answer, "y") == 0) {
    let stmt = pq_prepare(conn, "DELETE FROM patients WHERE id = ?");
    let res = pq_exec_prepared(conn, stmt, pid);
    if (pq_result_status(res) == 0) {
      printf("discharged\n");
      log_action("discharge", pid);
    } else {
      printf("discharge failed\n");
    }
  } else {
    printf("cancelled\n");
  }
}

fun department_report(conn) {
  report_line(conn, "cardio");
  report_line(conn, "neuro");
  report_line(conn, "ortho");
  printf("report complete\n");
}

fun report_line(conn, dept) {
  let q = strcat(strcat("SELECT COUNT(*) FROM patients WHERE dept = '", dept), "'");
  let res = pq_exec(conn, q);
  printf("%s: %s patient(s)\n", dept, pq_getvalue(res, 0, 0));
}

fun log_action(kind, id) {
  let f = fopen("hospital.log", "a");
  fprintf(f, "%s %d\n", kind, id);
  fclose(f);
}
|}

let setup_db engine =
  let exec sql = ignore (Sqldb.Engine.exec engine sql) in
  exec "CREATE TABLE patients (id, name, age, dept, diagnosis)";
  exec "CREATE TABLE appointments (id, patient_id, day, dept)";
  let depts = [| "cardio"; "neuro"; "ortho" |] in
  for i = 0 to 24 do
    Printf.ksprintf exec
      "INSERT INTO patients VALUES (%d, 'patient%d', %d, '%s', '%s')" (1000 + i) i
      (20 + ((i * 7) mod 60))
      depts.(i mod 3)
      (if i mod 4 = 0 then "flu" else "none")
  done;
  for i = 0 to 39 do
    Printf.ksprintf exec "INSERT INTO appointments VALUES (%d, %d, %d, '%s')" i
      (1000 + (i mod 25))
      (1 + (i mod 28))
      depts.(i mod 3)
  done

(* Scripted menu interactions covering every handler and branch. *)
let test_cases ~count ~seed =
  let rng = Mlkit.Rng.create seed in
  let op i =
    match i with
    | 0 ->
        (* register, valid *)
        [ "1"; Printf.sprintf "newpatient%d" (Mlkit.Rng.int rng 50);
          string_of_int (20 + Mlkit.Rng.int rng 50); "cardio" ]
    | 1 -> [ "1"; ""; "30"; "neuro" ] (* register, invalid name *)
    | 2 -> [ "2"; string_of_int (1000 + Mlkit.Rng.int rng 25) ] (* view, hit *)
    | 3 -> [ "2"; "9999" ] (* view, miss *)
    | 4 -> [ "3"; string_of_int (1000 + Mlkit.Rng.int rng 25) ] (* appointments *)
    | 5 -> [ "4"; string_of_int (1000 + Mlkit.Rng.int rng 25); "migraine" ]
    | 6 -> [ "5"; string_of_int (1000 + Mlkit.Rng.int rng 25); "y" ]
    | 7 -> [ "5"; string_of_int (1000 + Mlkit.Rng.int rng 25); "n" ]
    | _ -> [ "6" ]
  in
  List.init count (fun case ->
      let ops = 1 + Mlkit.Rng.int rng 4 in
      let script =
        List.concat (List.init ops (fun k -> op ((case + (k * 3)) mod 9))) @ [ "0" ]
      in
      Runtime.Testcase.make ~input:script ~seed:case (Printf.sprintf "hospital-%03d" case))

let app () =
  {
    Adprom.Pipeline.name = "App_h (hospital)";
    source;
    dbms = "PostgreSQL";
    setup_db;
    test_cases = test_cases ~count:63 ~seed:7001;
  }
