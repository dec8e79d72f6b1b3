(* Minimal SARIF 2.1.0 emission for vet diagnostics: one run, rules
   derived from the distinct Diag codes, severities mapped onto SARIF
   levels (Error -> "error", Warning -> "warning", Hint -> "note"),
   the func#block anchor carried as a logicalLocation plus a
   region-less physicalLocation on the vetted file, and witness steps
   ([Diag.related]) as relatedLocations. Enough for GitHub code
   scanning and sarif-tooling to ingest; nothing here parses. *)

module Json = Adprom_obs.Json

let version = "2.1.0"

let schema_uri =
  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"

let level_of_severity = function
  | Diag.Error -> "error"
  | Diag.Warning -> "warning"
  | Diag.Hint -> "note"

let arr items = "[" ^ String.concat "," items ^ "]"

let rule_json code =
  Json.obj
    [
      ("id", Json.string code);
      ("name", Json.string code);
      ( "shortDescription",
        Json.obj [ ("text", Json.string ("adprom vet check: " ^ code)) ] );
    ]

let location_json ~file (d : Diag.t) =
  let logical =
    match (d.Diag.func, d.Diag.block) with
    | "", None -> []
    | f, b ->
        let name =
          match (f, b) with
          | "", Some b -> Printf.sprintf "#%d" b
          | f, Some b -> Printf.sprintf "%s#%d" f b
          | f, None -> f
        in
        [
          ( "logicalLocations",
            arr
              [
                Json.obj
                  [
                    ("fullyQualifiedName", Json.string name);
                    ("kind", Json.string "function");
                  ];
              ] );
        ]
  in
  Json.obj
    (( "physicalLocation",
       Json.obj
         [ ("artifactLocation", Json.obj [ ("uri", Json.string file) ]) ] )
    :: logical)

let related_json ~file step =
  Json.obj
    [
      ( "physicalLocation",
        Json.obj [ ("artifactLocation", Json.obj [ ("uri", Json.string file) ]) ] );
      ("message", Json.obj [ ("text", Json.string step) ]);
    ]

let result_json ~file (d : Diag.t) =
  let related =
    match d.Diag.related with
    | [] -> []
    | steps ->
        [ ("relatedLocations", arr (List.map (related_json ~file) steps)) ]
  in
  Json.obj
    ([
       ("ruleId", Json.string d.Diag.code);
       ("level", Json.string (level_of_severity d.Diag.severity));
       ("message", Json.obj [ ("text", Json.string (Diag.to_string d)) ]);
       ("locations", arr [ location_json ~file d ]);
     ]
    @ related)

(* [results] pairs each vetted file with its diagnostics; the whole
   batch becomes one run. *)
let report results =
  let codes =
    List.sort_uniq compare
      (List.concat_map
         (fun (_, diags) -> List.map (fun (d : Diag.t) -> d.Diag.code) diags)
         results)
  in
  let driver =
    [ ("name", Json.string "adprom-vet"); ("rules", arr (List.map rule_json codes)) ]
  in
  let run =
    Json.obj
      [
        ("tool", Json.obj [ ("driver", Json.obj driver) ]);
        ( "results",
          arr
            (List.concat_map
               (fun (file, diags) -> List.map (result_json ~file) diags)
               results) );
      ]
  in
  Json.obj
    [
      ("version", Json.string version);
      ("$schema", Json.string schema_uri);
      ("runs", arr [ run ]);
    ]
