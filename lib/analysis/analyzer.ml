type event = { symbol : Symbol.t; caller : string; block : int }

type t = {
  program : Applang.Ast.program;
  front : Front.t;
  ctms : (string * Ctm.t) list;
  pctm : Ctm.t;
  site_events : event array;
}

module Trace_ = Adprom_obs.Trace

(* Slots [2b] and [2b + 1] hold library call site [b]'s unlabelled and
   labelled event; every other slot holds [unused]. Block ids are global
   per program, so one array covers every function. *)
let unused = { symbol = Symbol.Entry; caller = ""; block = -1 }

let site_events cfgs =
  let size =
    List.fold_left
      (fun m (_, cfg) -> List.fold_left max m (Cfg.node_ids cfg))
      (-1) cfgs
    + 1
  in
  let events = Array.make (2 * size) unused in
  List.iter
    (fun (caller, cfg) ->
      List.iter
        (fun (block, (site : Cfg.call_site)) ->
          if not site.Cfg.is_user then begin
            let lib label = Symbol.Lib { name = site.Cfg.callee; label; site = None } in
            events.(2 * block) <- { symbol = lib None; caller; block };
            events.((2 * block) + 1) <- { symbol = lib (Some block); caller; block }
          end)
        (Cfg.call_nodes cfg))
    cfgs;
  events

let analyze ?(entry = "main") program =
  Trace_.with_span "analysis.analyze"
    ~attrs:(fun () -> [ ("entry", entry) ])
    (fun () ->
      let front = Front.build program in
      if not (List.mem_assoc entry front.Front.cfgs) then
        invalid_arg (Printf.sprintf "no entry function `%s`" entry);
      let ctms =
        Trace_.with_span "analysis.forecast" (fun () -> Forecast.ctms front.Front.pruned)
      in
      let pctm =
        Trace_.with_span "analysis.ctm_aggregate" (fun () ->
            Aggregate.program_ctm ctms front.Front.callgraph ~entry)
      in
      { program; front; ctms; pctm; site_events = site_events front.Front.cfgs })

let block_of_call t expr = Cfg.Sites.block_of t.front.Front.sites expr

let site_event t ~block ~labelled =
  t.site_events.((2 * block) + if labelled then 1 else 0)
