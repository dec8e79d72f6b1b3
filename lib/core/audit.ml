type finding =
  | Unknown_query_signature of string
  | Query_anomaly of { sql : string; detail : string }
  | Tainted_file_command of { path : string; command : string }

let learn outcomes =
  (* Prepare-time texts register their shape only; executed queries
     (parameters bound in, cardinality known) train the constraints. *)
  let profile = Adprom_qsig.Profile.create () in
  List.iter
    (fun (o : Runtime.Interp.outcome) ->
      List.iter (Adprom_qsig.Profile.learn_shape profile) o.Runtime.Interp.queries;
      Adprom_qsig.Profile.learn_log profile o.Runtime.Interp.query_log)
    outcomes;
  profile

let unknown_in_run qsig queries =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun sql ->
      let name, known =
        match Adprom_qsig.Signature.of_sql sql with
        | Ok s -> (Adprom_qsig.Signature.to_string s, Adprom_qsig.Profile.mem qsig s)
        | Error _ -> ("<malformed>", Adprom_qsig.Profile.malformed_count qsig > 0)
      in
      if known || Hashtbl.mem seen name then None
      else begin
        Hashtbl.replace seen name ();
        Some name
      end)
    queries

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  n > 0
  &&
  let rec probe i = i + n <= h && (String.sub haystack i n = needle || probe (i + 1)) in
  probe 0

let finding_to_string = function
  | Unknown_query_signature s -> Printf.sprintf "unknown query signature: %s" s
  | Query_anomaly { sql; detail } -> Printf.sprintf "anomalous query %S: %s" sql detail
  | Tainted_file_command { path; command } ->
      Printf.sprintf "command %S touches labeled file %s" command path

(* Engine reasons already reported as unknown signatures (or counted as
   malformed) by the set-membership pass are dropped here; what remains
   is the constraint-aware layer: widening, slot and cardinality. *)
let constraint_reasons verdict =
  List.filter
    (function
      | Adprom_qsig.Engine.Unknown_signature _
      | Adprom_qsig.Engine.Impossible_signature _
      | Adprom_qsig.Engine.Malformed _ ->
          false
      | Adprom_qsig.Engine.Tautology | Adprom_qsig.Engine.Constant_comparison
      | Adprom_qsig.Engine.Slot_violation _
      | Adprom_qsig.Engine.Cardinality_blowup _ ->
          true)
    verdict.Adprom_qsig.Engine.reasons

let audit ?policy ~qsig (outcome : Runtime.Interp.outcome) =
  let query_findings =
    List.map
      (fun s -> Unknown_query_signature s)
      (unknown_in_run qsig outcome.Runtime.Interp.queries)
  in
  let engine = Adprom_qsig.Engine.create ?policy qsig in
  let constraint_findings =
    List.concat_map
      (fun (sql, rows) ->
        match constraint_reasons (Adprom_qsig.Engine.check ~rows engine sql) with
        | [] -> []
        | reasons ->
            [
              Query_anomaly
                {
                  sql;
                  detail =
                    String.concat "; "
                      (List.map Adprom_qsig.Engine.reason_to_string reasons);
                };
            ])
      outcome.Runtime.Interp.query_log
  in
  let file_findings =
    List.concat_map
      (fun command ->
        List.filter_map
          (fun path ->
            if contains ~needle:path command then
              Some (Tainted_file_command { path; command })
            else None)
          outcome.Runtime.Interp.tainted_files)
      outcome.Runtime.Interp.system_calls
  in
  let findings = query_findings @ constraint_findings @ file_findings in
  List.iter
    (fun f ->
      Adprom_obs.Log.emit Adprom_obs.Log.Warn ~scope:"audit"
        ~fields:
          [
            ( "kind",
              Adprom_obs.Log.Str
                (match f with
                | Unknown_query_signature _ -> "unknown_query_signature"
                | Query_anomaly _ -> "query_anomaly"
                | Tainted_file_command _ -> "tainted_file_command") );
          ]
        (finding_to_string f))
    findings;
  findings
