let escape s =
  String.concat "\\\"" (String.split_on_char '"' s)

let cfg_to_dot (cfg : Cfg.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph \"%s\" {\n" (escape cfg.Cfg.func));
  Buffer.add_string buf "  node [fontname=\"monospace\"];\n";
  List.iter
    (fun id ->
      let node = Cfg.node cfg id in
      let shape, label =
        match node.Cfg.event with
        | Cfg.E_entry -> ("circle", "entry")
        | Cfg.E_exit -> ("doublecircle", "exit")
        | Cfg.E_call site ->
            let label =
              match site.Cfg.label with
              | Some bid -> Printf.sprintf "%s_Q%d" site.Cfg.callee bid
              | None -> site.Cfg.callee
            in
            ("box", label)
        | Cfg.E_cond _ -> ("diamond", "cond")
        | Cfg.E_bind (x, _) -> ("plaintext", "bind " ^ x)
        | Cfg.E_return _ -> ("plaintext", "return")
        | Cfg.E_join -> ("point", "")
      in
      let style =
        match node.Cfg.event with
        | Cfg.E_call site when site.Cfg.label <> None ->
            ", style=filled, fillcolor=\"#ffd9d9\""
        | _ -> ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [shape=%s, label=\"%d: %s\"%s];\n" id shape id (escape label)
           style))
    (Cfg.node_ids cfg);
  List.iter
    (fun id ->
      List.iter
        (fun succ -> Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" id succ))
        (Cfg.successors cfg id))
    (Cfg.node_ids cfg);
  List.iter
    (fun (src, dst) ->
      Buffer.add_string buf (Printf.sprintf "  n%d -> n%d [style=dashed, color=gray];\n" src dst))
    cfg.Cfg.back_edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let ctm_to_dot ctm =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph ctm {\n  rankdir=LR;\n  node [fontname=\"monospace\"];\n";
  let name_of s = escape (Symbol.to_string s) in
  List.iter
    (fun s -> Buffer.add_string buf (Printf.sprintf "  \"%s\";\n" (name_of s)))
    (Ctm.symbols ctm);
  Ctm.iter
    (fun a b v ->
      if v > 0.0 then
        Buffer.add_string buf
          (Printf.sprintf "  \"%s\" -> \"%s\" [label=\"%.4f\"];\n" (name_of a) (name_of b) v))
    ctm;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let callgraph_to_dot cg =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "digraph callgraph {\n";
  List.iter
    (fun f ->
      Buffer.add_string buf (Printf.sprintf "  \"%s\";\n" (escape f));
      List.iter
        (fun callee ->
          Buffer.add_string buf (Printf.sprintf "  \"%s\" -> \"%s\";\n" (escape f) (escape callee)))
        (Callgraph.callees cg f))
    (Callgraph.functions cg);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
