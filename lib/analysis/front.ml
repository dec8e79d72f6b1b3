type t = {
  cfgs : (string * Cfg.t) list;
  sites : Cfg.Sites.sites;
  taint : Taint.result;
  pruned : (string * Cfg.t) list;
  callgraph : Callgraph.t;
}

module Trace_ = Adprom_obs.Trace

let build program =
  let cfgs, sites =
    Trace_.with_span "analysis.cfg" (fun () -> Cfg_build.build_program program)
  in
  let callgraph = Trace_.with_span "analysis.callgraph" (fun () -> Callgraph.build cfgs) in
  let taint = Trace_.with_span "analysis.taint" (fun () -> Taint.analyze cfgs) in
  let pruned, _ = Trace_.with_span "analysis.prune" (fun () -> Prune.program cfgs) in
  { cfgs; sites; taint; pruned; callgraph }
