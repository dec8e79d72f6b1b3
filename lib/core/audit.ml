type finding = Tainted_file_command of { path : string; command : string }

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

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  n > 0
  &&
  let rec probe i = i + n <= h && (String.sub haystack i n = needle || probe (i + 1)) in
  probe 0

let finding_to_string (Tainted_file_command { path; command }) =
  Printf.sprintf "command %S touches labeled file %s" command path

let audit (outcome : Runtime.Interp.outcome) =
  let findings =
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
  List.iter
    (fun f ->
      Adprom_obs.Log.emit Adprom_obs.Log.Warn ~scope:"audit"
        ~fields:[ ("kind", Adprom_obs.Log.Str "tainted_file_command") ]
        (finding_to_string f))
    findings;
  findings
