module Ast = Sqldb.Sql_ast

type kind = Tautology_widening | Cardinality_blowup | Literal_out_of_band

let kind_to_string = function
  | Tautology_widening -> "tautology_widening"
  | Cardinality_blowup -> "cardinality_blowup"
  | Literal_out_of_band -> "literal_out_of_band"

let all_kinds = [ Tautology_widening; Cardinality_blowup; Literal_out_of_band ]

(* The constant the tautology compares; varied per scenario so the
   mutated family is not one memorizable string. *)
let taut_atom variant =
  let s = Printf.sprintf "%d" (1 + (variant mod 9)) in
  Ast.Cmp (Ast.Ceq, Ast.Lit (Ast.L_str s), Ast.Lit (Ast.L_str s))

let widen_where variant = function
  | Some e -> Some (Ast.Or (e, taut_atom variant))
  | None -> Some (taut_atom variant)

let out_of_band_literal variant = function
  | Ast.L_int n -> Ast.L_int ((n * 1001) + 100003 + variant)
  | Ast.L_str s -> Ast.L_str (s ^ String.make 32 'z')
  | (Ast.L_null | Ast.L_param _) as l -> l

let mutate_statement ~variant kind stmt =
  match kind with
  | Tautology_widening -> (
      match stmt with
      | Ast.Select s -> Ast.Select { s with where = widen_where variant s.where }
      | Ast.Update u -> Ast.Update { u with where = widen_where variant u.where }
      | Ast.Delete d -> Ast.Delete { d with where = widen_where variant d.where }
      | (Ast.Create _ | Ast.Insert _) as s -> s)
  | Cardinality_blowup -> (
      match stmt with
      | Ast.Select s -> Ast.Select { s with where = None; limit = None }
      | Ast.Update u -> Ast.Update { u with where = None }
      | Ast.Delete d -> Ast.Delete { d with where = None }
      | (Ast.Create _ | Ast.Insert _) as s -> s)
  | Literal_out_of_band -> Ast.map_literals (out_of_band_literal variant) stmt

let reads_rows = function
  | Ast.Select _ -> true
  | Ast.Create _ | Ast.Insert _ | Ast.Update _ | Ast.Delete _ -> false

(* Wire-level rewrite: leave non-SELECT traffic and unparseable text
   alone so the program keeps functioning — a stealthy exfiltration
   widens reads, it does not break writes. *)
let mutate_sql ~variant kind sql =
  match Sqldb.Sql_parser.parse sql with
  | Ok stmt when reads_rows stmt ->
      Sqldb.Sql_pp.to_string (mutate_statement ~variant kind stmt)
  | Ok _ | Error _ -> sql

let variant_scenario variant kind =
  {
    Scenario.id = Printf.sprintf "q_mut_%s_%d" (kind_to_string kind) variant;
    description =
      Printf.sprintf
        "MITM query mutation (%s, variant %d): call sequence intact, SELECTs rewritten \
         on the wire"
        (kind_to_string kind) variant;
    vector = Scenario.Mitm (mutate_sql ~variant kind);
  }

let family ~variants =
  List.concat_map
    (fun kind -> List.init variants (fun v -> variant_scenario v kind))
    all_kinds

let scenario = variant_scenario 0

let run_logs scenario app =
  let malicious, patches, query_rewriter = Scenario.apply scenario app in
  let analysis = Adprom.Pipeline.analyze_app malicious in
  List.map
    (fun tc ->
      let _, outcome =
        Adprom.Pipeline.run_case ~patches ?query_rewriter ~analysis malicious tc
      in
      (tc, outcome.Runtime.Interp.query_log))
    malicious.Adprom.Pipeline.test_cases
