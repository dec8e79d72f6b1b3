(* Table VII: confusion matrix of each SIR model. Normal windows are the
   held-out Normal-sequences; anomalies are synthetic A-S2 (foreign
   calls) and A-S3 (inflated frequency) sequences, as in Sec. V-D. *)

let anomalies_per_kind = 60

let run () =
  Common.heading "Table VII: Confusion matrix of the programs' models (A-S2 + A-S3)";
  let rows =
    List.map
      (fun (label, trained) ->
        let t = Lazy.force trained in
        let profile = Lazy.force t.Common.adprom in
        let ds = t.Common.dataset in
        let rng = Mlkit.Rng.create 4242 in
        let legit = profile.Adprom.Profile.alphabet in
        let pool = ds.Adprom.Pipeline.windows in
        let synth kind =
          Attack.Synthetic.batch ~rng ~legitimate:legit ~kind
            ~count:anomalies_per_kind pool
        in
        let anomalous = synth `S2 @ synth `S3 in
        let engine = Lazy.force t.Common.adprom_engine in
        let flagged w =
          (Adprom.Scoring.classify engine w).Adprom.Detector.flag <> Adprom.Detector.Normal
        in
        let confusion =
          List.fold_left
            (fun acc w -> Adprom.Evaluation.observe acc ~anomalous:false ~flagged:(flagged w))
            Adprom.Evaluation.empty pool
        in
        let confusion =
          List.fold_left
            (fun acc w -> Adprom.Evaluation.observe acc ~anomalous:true ~flagged:(flagged w))
            confusion anomalous
        in
        let c = confusion in
        [
          label;
          string_of_int (Adprom.Evaluation.total c);
          string_of_int c.Adprom.Evaluation.tp;
          string_of_int c.Adprom.Evaluation.tn;
          string_of_int c.Adprom.Evaluation.fp;
          string_of_int c.Adprom.Evaluation.fn;
          Adprom.Report.float_cell ~digits:2 (Adprom.Evaluation.recall c);
          Adprom.Report.float_cell ~digits:2 (Adprom.Evaluation.precision c);
          Adprom.Report.float_cell ~digits:4 (Adprom.Evaluation.accuracy c);
        ])
      (Common.sir_all ())
  in
  Adprom.Report.print
    ~header:[ ""; "#seq."; "TP"; "TN"; "FP"; "FN"; "Rec."; "Prec."; "Acc." ]
    rows;
  Printf.printf "\nExpected shape (paper): accuracy >= 0.99 with single-digit FP/FN.\n"
