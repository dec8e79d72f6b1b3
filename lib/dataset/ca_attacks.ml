module Mutate = Attack.Mutate
module Scenario = Attack.Scenario

type case = {
  label : string;
  scenario : Scenario.t;
  app : Adprom.Pipeline.app;
}

(* Parse a statement list by wrapping it in a dummy function. *)
let parse_stmts src =
  let p = Applang.Parser.parse_program ("fun __attack__() {" ^ src ^ "}") in
  match p.Applang.Ast.funcs with
  | [ f ] -> f.Applang.Ast.body
  | _ -> assert false

(* Insert a printing command similar to one in another branch
   (App_h: the no-match branch of the lookup starts echoing record
   fields like the match branch does). *)
let attack1 () =
  let inserted = parse_stmts {| printf("thank you, %s shopper\n", name); |} in
  {
    label = "Attack 1";
    app = Ca_supermarket.app ();
    scenario =
      {
        Scenario.id = "insert-similar-print";
        description =
          "a new printf of the item name is inserted into the regular receipt, \
           making its call sequence identical (unlabeled) to the member \
           receipt in the sibling branch; only the block id of the DB-output \
           label tells the two apart";
        vector =
          Scenario.Source_change
            (fun p -> Mutate.insert_in_function p ~func:"print_receipt" ~at:2 inserted);
      };
  }

let attack2 () =
  let inserted =
    parse_stmts
      {|
        let snoopstmt = pq_prepare(conn, "SELECT name, diagnosis FROM patients WHERE id = ?");
        let snoopres = pq_exec_prepared(conn, snoopstmt, pid);
        let snoopout = fopen("/tmp/drop.dat", "a");
        write(snoopout, pq_getvalue(snoopres, 0, 1));
        fclose(snoopout);
      |}
  in
  {
    label = "Attack 2";
    app = Ca_hospital.app ();
    scenario =
      {
        Scenario.id = "insert-exfil-other-function";
        description =
          "update_diagnosis (which never did output) starts re-querying the \
           patient record and writing it to a drop file";
        vector =
          Scenario.Source_change
            (fun p -> Mutate.insert_in_function p ~func:"update_diagnosis" ~at:4 inserted);
      };
  }

(* Reuse an existing print command: its arguments are changed to print
   a field of the query result (App_h: the report footer prints a
   patient field instead of a constant). *)
let attack3 () =
  {
    label = "Attack 3";
    app = Ca_supermarket.app ();
    scenario =
      {
        Scenario.id = "reuse-existing-print";
        description =
          "the receipt separator printf is reused: its arguments now print \
           the item name fetched from the DB — the call sequence is unchanged, \
           only the data flow differs";
        vector =
          Scenario.Source_change
            (fun p ->
              Mutate.rewrite_call_args p ~func:"print_receipt" ~callee:"printf"
                ~occurrence:0 (fun _ ->
                  [ Applang.Ast.Str "%s\n"; Applang.Ast.Var "name" ]));
      };
  }

let attack4 () =
  let app = Ca_supermarket.app () in
  (* Choose the injection point like the Dyninst attacker would: a
     labeled output site that the program actually reaches (probed by
     running a few test cases). *)
  let analysis = Adprom.Pipeline.analyze_app app in
  let labeled = analysis.Analysis.Analyzer.taint.Analysis.Taint.labeled_blocks in
  let probe_cases =
    List.filteri (fun i _ -> i < 10) app.Adprom.Pipeline.test_cases
  in
  let reached = Hashtbl.create 64 in
  List.iter
    (fun tc ->
      let trace, _ = Adprom.Pipeline.run_case ~analysis app tc in
      Array.iter
        (fun (e : Runtime.Collector.event) ->
          Hashtbl.replace reached e.Runtime.Collector.block ())
        trace)
    probe_cases;
  let block =
    match List.find_opt (Hashtbl.mem reached) labeled with
    | Some bid -> bid
    | None -> invalid_arg "attack4: no reachable labeled output site"
  in
  {
    label = "Attack 4";
    app;
    scenario =
      {
        Scenario.id = "binary-patch";
        description =
          Printf.sprintf
            "Dyninst-style patch: an fwrite leaking the targeted data is \
             spliced in after block %d" block;
        vector =
          Scenario.Binary_patch
            [
              {
                Runtime.Patch.position = Runtime.Patch.After_block block;
                calls = [ { Runtime.Patch.name = "fwrite"; leaks_td = true } ];
              };
            ];
      };
  }

let attack5 () =
  {
    label = "Attack 5";
    app = Ca_banking.app ();
    scenario =
      {
        Scenario.id = "tautology-sqli";
        description =
          "tautology injection (1' OR '1'='1) through the unprepared client \
           lookup harvests every client record";
        vector = Scenario.Malicious_input Ca_banking.poison_lookup;
      };
  }

let all () = [ attack1 (); attack2 (); attack3 (); attack4 (); attack5 () ]

(* --- the full Sec. III adversary model ----------------------------------- *)

let attack_1_1 () =
  {
    label = "Attack 1.1";
    app = Ca_banking.app ();
    scenario =
      {
        Scenario.id = "selectivity-widening";
        description =
          "Fig. 1: the lookup query's ID = is widened to ID >=, so the \
           existing print loop iterates over many records instead of one";
        vector =
          Scenario.Source_change
            (fun p ->
              Mutate.rewrite_strings p ~func:"lookup_client" (fun s ->
                  if s = "SELECT id, name, balance FROM clients WHERE id='" then
                    "SELECT id, name, balance FROM clients WHERE id>='"
                  else s));
      };
  }

(* Sec. III attack 1.3: an existing store-to-file command's arguments
   are replaced with a query result (the hospital audit log starts
   receiving diagnoses). *)
let attack_1_3 () =
  {
    label = "Attack 1.3";
    app = Ca_hospital.app ();
    scenario =
      {
        Scenario.id = "reuse-file-store";
        description =
          "the existing audit-log call in view_patient is reused: its constant \
           argument is replaced with the patient's diagnosis, so the log file \
           receives targeted data";
        vector =
          Scenario.Source_change
            (fun p ->
              Mutate.rewrite_call_args p ~func:"view_patient" ~callee:"log_action"
                ~occurrence:0 (fun args ->
                  match args with
                  | [ _; id ] ->
                      [ Applang.Parser.parse_expr "pq_getvalue(res, 0, 4)"; id ]
                  | other -> other));
      };
  }

(* Gadget points for the code-reuse attacks: splice at a reachable
   labeled output site of the target, like attack4 does. *)
let reachable_labeled_block app =
  let analysis = Adprom.Pipeline.analyze_app app in
  let labeled = analysis.Analysis.Analyzer.taint.Analysis.Taint.labeled_blocks in
  let probe = List.filteri (fun i _ -> i < 10) app.Adprom.Pipeline.test_cases in
  let reached = Hashtbl.create 64 in
  List.iter
    (fun tc ->
      let trace, _ = Adprom.Pipeline.run_case ~analysis app tc in
      Array.iter
        (fun (e : Runtime.Collector.event) ->
          Hashtbl.replace reached e.Runtime.Collector.block ())
        trace)
    probe;
  match List.find_opt (Hashtbl.mem reached) labeled with
  | Some bid -> bid
  | None -> invalid_arg "no reachable labeled output site"

(* Sec. III attack 2.2 (ROP): existing code gadgets — the open/write/
   close file sequence — are chained at an attacker-chosen point to
   exfiltrate the targeted data. Simulated as injected call events,
   like the ROP payload's effect on the trace. *)
let attack_2_2 () =
  let app = Ca_banking.app () in
  let block = reachable_labeled_block app in
  {
    label = "Attack 2.2";
    app;
    scenario =
      {
        Scenario.id = "rop-gadget-chain";
        description =
          Printf.sprintf
            "ROP: the fopen/fwrite/fclose gadgets are chained after block %d \
             to dump the targeted data to a file" block;
        vector =
          Scenario.Binary_patch
            [
              {
                Runtime.Patch.position = Runtime.Patch.After_block block;
                calls =
                  [
                    { Runtime.Patch.name = "fopen"; leaks_td = false };
                    { Runtime.Patch.name = "fwrite"; leaks_td = true };
                    { Runtime.Patch.name = "fclose"; leaks_td = false };
                  ];
              };
            ];
      };
  }

(* Sec. III attack 3.2 (MITM): the query is rewritten on the
   unencrypted wire; client code and binary are untouched. *)
let attack_3_2 () =
  {
    label = "Attack 3.2";
    app = Ca_banking.app ();
    scenario =
      {
        Scenario.id = "mitm-query-rewrite";
        description =
          "MITM on the unencrypted connection: every client-lookup query is \
           rewritten on the wire into a full-table harvest; the binary is \
           untouched";
        vector =
          Scenario.Mitm
            (fun sql ->
              if
                String.length sql >= 6
                && String.uppercase_ascii (String.sub sql 0 6) = "SELECT"
                && String.length sql > 30
                &&
                let probe = "FROM clients" in
                let n = String.length probe in
                let rec go i =
                  i + n <= String.length sql && (String.sub sql i n = probe || go (i + 1))
                in
                go 0
              then "SELECT id, name, balance FROM clients"
              else sql);
      };
  }

(* Sec. III attack 3.3 (BROP): stack-probing writes followed by the
   leak — a burst of [write] calls at a gadget point. *)
let attack_3_3 () =
  let app = Ca_supermarket.app () in
  let block = reachable_labeled_block app in
  {
    label = "Attack 3.3";
    app;
    scenario =
      {
        Scenario.id = "brop-stack-probe";
        description =
          Printf.sprintf
            "BROP: a burst of probing write calls at block %d, then the leak" block;
        vector =
          Scenario.Binary_patch
            [
              {
                Runtime.Patch.position = Runtime.Patch.Before_block block;
                calls =
                  List.init 4 (fun _ -> { Runtime.Patch.name = "write"; leaks_td = false })
                  @ [ { Runtime.Patch.name = "write"; leaks_td = true } ];
              };
            ];
      };
  }

let adversary_model () =
  [
    ("1.1 selectivity widening", attack_1_1 ());
    ("1.2 new store-to-file command", attack2 ());
    ("1.3 reuse store-to-file command", attack_1_3 ());
    ("2.1 binary patch (Dyninst)", attack4 ());
    ("2.2 return-oriented programming", attack_2_2 ());
    ("3.1 tautology SQL injection", attack5 ());
    ("3.2 man in the middle", attack_3_2 ());
    ("3.3 blind ROP", attack_3_3 ());
  ]
