module Symbol = Analysis.Symbol

type t = {
  obs : Symbol.t array;
  callers : string array;
}

let of_trace ?(window = 15) trace =
  let events = Array.map (fun (e : Runtime.Collector.event) -> e) trace in
  let len = Array.length events in
  let make lo n =
    {
      obs = Array.init n (fun i -> Symbol.observable events.(lo + i).Runtime.Collector.symbol);
      callers = Array.init n (fun i -> events.(lo + i).Runtime.Collector.caller);
    }
  in
  if len = 0 then []
  else if len <= window then [ make 0 len ]
  else
    let count = len - window + 1 in
    List.init count (fun lo -> make lo window)

let strip_labels w = { w with obs = Array.map Symbol.strip_label w.obs }

let dedup windows =
  let tbl = Hashtbl.create 256 in
  let order = ref [] in
  List.iter
    (fun w ->
      let key = (w.obs, w.callers) in
      match Hashtbl.find_opt tbl key with
      | Some n -> Hashtbl.replace tbl key (n +. 1.0)
      | None ->
          Hashtbl.replace tbl key 1.0;
          order := w :: !order)
    windows;
  List.rev_map (fun w -> (w, Hashtbl.find tbl (w.obs, w.callers))) !order

let encode ~index w =
  let n = Array.length w.obs in
  let out = Array.make n 0 in
  let ok = ref true in
  Array.iteri
    (fun i s ->
      match index s with
      | Some k -> out.(i) <- k
      | None -> ok := false)
    w.obs;
  if !ok && n > 0 then Some out else None

let contains_labeled_output w = Array.exists Symbol.is_labeled w.obs

let pairs w =
  Array.to_list (Array.mapi (fun i s -> (w.callers.(i), s)) w.obs)
