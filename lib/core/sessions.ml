type tagged = { session : int; event : Runtime.Collector.event }

let interleave ~rng traces =
  let traces = Array.of_list traces in
  let pos = Array.make (Array.length traces) 0 in
  (* The sessions that still have events, descending, in the first
     [!n] slots: each event is drawn from one of them, and a session
     that runs out leaves by one blit, so E events over S sessions cost
     O(E + S^2). *)
  let live =
    List.init (Array.length traces) Fun.id
    |> List.rev
    |> List.filter (fun i -> Array.length traces.(i) > 0)
    |> Array.of_list
  in
  let n = ref (Array.length live) in
  let total = Array.fold_left (fun acc t -> acc + Array.length t) 0 traces in
  if total = 0 then [||]
  else begin
    let out = Array.make total { session = live.(0); event = traces.(live.(0)).(0) } in
    for e = 0 to total - 1 do
      let k = Mlkit.Rng.int rng !n in
      let i = live.(k) in
      out.(e) <- { session = i; event = traces.(i).(pos.(i)) };
      pos.(i) <- pos.(i) + 1;
      if pos.(i) = Array.length traces.(i) then begin
        Array.blit live (k + 1) live k (!n - k - 1);
        decr n
      end
    done;
    out
  end

let demux tagged =
  let buckets = Hashtbl.create 8 in
  Array.iter
    (fun t ->
      let cur = match Hashtbl.find_opt buckets t.session with Some l -> l | None -> [] in
      Hashtbl.replace buckets t.session (t.event :: cur))
    tagged;
  Hashtbl.fold (fun s events acc -> (s, Array.of_list (List.rev events)) :: acc) buckets []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let windows_naive ~window tagged =
  Window.of_trace ~window (Array.map (fun t -> t.event) tagged)

let windows_per_session ~window tagged =
  List.concat_map (fun (_, trace) -> Window.of_trace ~window trace) (demux tagged)
