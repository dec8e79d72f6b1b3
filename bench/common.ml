(* Shared context for the benchmark harness: datasets and profiles are
   expensive, so experiments that need the same artifacts share them
   through lazies. *)

let smoke = ref false
(* --smoke: shrink the workloads so the suite fits in a CI smoke run;
   shapes stay, absolute numbers shrink *)

let time f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

let heading title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n%!"

(* Experiment-scale knobs: the paper's SIR subjects are bigger than a
   pure-OCaml Baum-Welch can chew in a benchmark run, so App4 gets a
   reduced round budget (shapes, not absolute numbers; see DESIGN.md). *)
let sir_params ~big =
  let base =
    (* The SIR experiments tolerate a small FP budget in exchange for
       recall, like the paper's Table VII (FP of 4-8 per app). *)
    {
      Adprom.Pipeline.adprom_params with
      Adprom.Profile.threshold_strategy = Adprom.Threshold.Quantile 0.0005;
    }
  in
  if big then { base with Adprom.Profile.max_rounds = 10; patience = 2 } else base

let rand_params_of params =
  { params with Adprom.Profile.init = Adprom.Profile.Init_random }

type trained = {
  dataset : Adprom.Pipeline.dataset;
  adprom : Adprom.Profile.t Lazy.t;
  cmarkov : Adprom.Profile.t Lazy.t;
  adprom_engine : Adprom.Scoring.t Lazy.t;
  cmarkov_engine : Adprom.Scoring.t Lazy.t;
      (** the two profiles compiled once, so every experiment scoring
          them shares one verdict memo *)
  rand_hmm : Adprom.Profile.t Lazy.t;
  train_seconds : float ref;  (** wall time of the AD-PROM training *)
}

let prepare ?(big = false) app =
  let dataset = Adprom.Pipeline.collect app in
  let params = sir_params ~big in
  let train_seconds = ref 0.0 in
  let adprom =
    lazy
      (let profile, dt = time (fun () -> Adprom.Pipeline.train ~params dataset) in
       train_seconds := dt;
       profile)
  in
  let cmarkov =
    lazy
      (Adprom.Pipeline.train
         ~params:
           {
             Adprom.Pipeline.cmarkov_params with
             Adprom.Profile.max_rounds = params.Adprom.Profile.max_rounds;
           }
         dataset)
  in
  {
    dataset;
    adprom;
    cmarkov;
    adprom_engine = lazy (Adprom.Scoring.create (Lazy.force adprom));
    cmarkov_engine = lazy (Adprom.Scoring.create (Lazy.force cmarkov));
    rand_hmm = lazy (Adprom.Pipeline.train ~params:(rand_params_of params) dataset);
    train_seconds;
  }

let ca_hospital = lazy (prepare (Dataset.Ca_hospital.app ()))
let ca_banking = lazy (prepare (Dataset.Ca_banking.app ()))
let ca_supermarket = lazy (prepare (Dataset.Ca_supermarket.app ()))

let sir_app1 = lazy (prepare (Dataset.Sir.app1 ()))
let sir_app2 = lazy (prepare (Dataset.Sir.app2 ()))
let sir_app3 = lazy (prepare (Dataset.Sir.app3 ()))
let sir_app4 = lazy (prepare ~big:true (Dataset.Sir.app4 ()))

let sir_all () =
  [ ("App1", sir_app1); ("App2", sir_app2); ("App3", sir_app3); ("App4", sir_app4) ]

let ca_all () =
  [ ("App_h", ca_hospital); ("App_b", ca_banking); ("App_s", ca_supermarket) ]
