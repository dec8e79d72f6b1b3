type loop = {
  header : int;
  latches : int list;
  body : int list;
  exits : (int * int) list;
}

module IS = Set.Make (Int)

let analyze (cfg : Cfg.t) =
  let dom = Dominator.compute cfg in
  (* back edges grouped by header, genuine (header dominates latch) only *)
  let by_header = Hashtbl.create 8 in
  List.iter
    (fun (latch, header) ->
      if Dominator.dominates dom header latch then
        let cur =
          match Hashtbl.find_opt by_header header with Some l -> l | None -> []
        in
        Hashtbl.replace by_header header (latch :: cur))
    cfg.Cfg.back_edges;
  let full_succs id =
    Cfg.successors cfg id
    @ List.filter_map
        (fun (src, dst) -> if src = id then Some dst else None)
        cfg.Cfg.back_edges
  in
  let full_preds id =
    Cfg.predecessors cfg id
    @ List.filter_map
        (fun (src, dst) -> if dst = id then Some src else None)
        cfg.Cfg.back_edges
  in
  let loop_of_header header latches =
    (* reverse reachability from the latches, stopping at the header *)
    let body = ref (IS.add header IS.empty) in
    let work = Queue.create () in
    List.iter
      (fun latch ->
        if not (IS.mem latch !body) then begin
          body := IS.add latch !body;
          Queue.add latch work
        end)
      latches;
    while not (Queue.is_empty work) do
      let n = Queue.pop work in
      List.iter
        (fun p ->
          if not (IS.mem p !body) then begin
            body := IS.add p !body;
            Queue.add p work
          end)
        (full_preds n)
    done;
    let body = !body in
    let exits =
      IS.fold
        (fun n acc ->
          List.fold_left
            (fun acc s -> if IS.mem s body then acc else (n, s) :: acc)
            acc (full_succs n))
        body []
      |> List.sort_uniq compare
    in
    {
      header;
      latches = List.sort_uniq compare latches;
      body = IS.elements body;
      exits;
    }
  in
  Hashtbl.fold (fun header latches acc -> loop_of_header header latches :: acc) by_header []
  |> List.sort (fun a b -> compare a.header b.header)
