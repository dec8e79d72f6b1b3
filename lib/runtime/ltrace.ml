type stats = { mutable calls : int; mutable bytes : int }

let symtab_of_cfgs cfgs =
  let entries =
    List.concat_map
      (fun (name, cfg) -> List.map (fun id -> (id, name)) (Analysis.Cfg.node_ids cfg))
      cfgs
  in
  let arr = Array.of_list entries in
  Array.sort (fun (a, _) (b, _) -> compare a b) arr;
  arr

(* Binary search: largest entry with id <= the queried address, like
   addr2line scanning the symbol table. *)
let addr2line symtab addr =
  let n = Array.length symtab in
  if n = 0 then "??"
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      let id, _ = symtab.(mid) in
      if id <= addr then lo := mid else hi := mid - 1
    done;
    let id, name = symtab.(!lo) in
    Printf.sprintf "%s+0x%x" name ((addr - id) * 16)
  end

let make ~symtab =
  let stats = { calls = 0; bytes = 0 } in
  let log = Buffer.create 4096 in
  let emit (ev : Collector.event) ~args =
    stats.calls <- stats.calls + 1;
    (* ltrace resolves the caller from the instruction pointer rather
       than receiving it from the runtime. *)
    let resolved = addr2line symtab (max ev.Collector.block 0) in
    let rendered_args = List.map Rvalue.to_display args in
    let line =
      Printf.sprintf "%s->%s(%s) = <void>\n" resolved
        (Analysis.Symbol.name ev.Collector.symbol)
        (String.concat ", " rendered_args)
    in
    Buffer.add_string log line;
    stats.bytes <- stats.bytes + String.length line
  in
  ({ Collector.emit }, stats, log)
