module Symbol = Analysis.Symbol

(* Line-oriented format:
     adprom-profile 1
     params <window> <max_states> <cluster_fraction> <pca_variance>
            <use_labels> <track_callers>
     threshold <float>
     alphabet <k>            followed by k symbol lines
     pi <n floats>
     a <n>                   followed by n rows of n floats
     b <n> <m>               followed by n rows of m floats
     pairs <k>               followed by k "<caller> <symbol>" lines
     sites <k>               followed by k "<state> <symbol>" lines
   Symbols are encoded as colon-separated fields. *)

let encode_symbol = function
  | Symbol.Entry -> "entry"
  | Symbol.Exit -> "exit"
  | Symbol.Func f -> "func:" ^ f
  | Symbol.Lib { name; label; site } ->
      let opt = function None -> "-" | Some i -> string_of_int i in
      Printf.sprintf "lib:%s:%s:%s" name (opt label) (opt site)

let decode_symbol s =
  match String.split_on_char ':' s with
  | [ "entry" ] -> Ok Symbol.Entry
  | [ "exit" ] -> Ok Symbol.Exit
  | [ "func"; f ] -> Ok (Symbol.Func f)
  | [ "lib"; name; label; site ] ->
      let opt = function "-" -> Ok None | v -> (
        match int_of_string_opt v with
        | Some i -> Ok (Some i)
        | None -> Error ("bad int: " ^ v))
      in
      (match (opt label, opt site) with
      | Ok label, Ok site -> Ok (Symbol.Lib { name; label; site })
      | Error e, _ | _, Error e -> Error e)
  | _ -> Error ("bad symbol: " ^ s)

let floats_to_line xs =
  String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.9g") xs))

(* Stochastic rows are dominated by the Baum-Welch smoothing floor, so
   they compress well: store only the entries well above the row
   minimum; the remaining mass is spread uniformly over the implicit
   positions at load time. This is what keeps profiles in the tens of
   kilobytes (the paper reports ~31 kB). *)
let sparse_row_to_line xs =
  let n = Array.length xs in
  let lo = Array.fold_left Float.min infinity xs in
  let threshold = lo *. 2.0 in
  let explicit = ref [] in
  Array.iteri (fun j v -> if v > threshold then explicit := (j, v) :: !explicit) xs;
  let explicit = List.rev !explicit in
  if List.length explicit = n then
    "d " ^ floats_to_line xs
  else
    "s "
    ^ String.concat " "
        (List.map (fun (j, v) -> Printf.sprintf "%d:%.9g" j v) explicit)

let sparse_row_of_line ~n l =
  match String.split_on_char ' ' l with
  | "d" :: rest ->
      Array.of_list (List.filter_map (fun t -> if t = "" then None else Some (float_of_string t)) rest)
  | "s" :: rest ->
      let entries =
        List.filter_map
          (fun tok ->
            if tok = "" then None
            else
              match String.split_on_char ':' tok with
              | [ j; v ] -> Some (int_of_string j, float_of_string v)
              | _ -> failwith ("bad sparse entry: " ^ tok))
          rest
      in
      let explicit_mass = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 entries in
      let implicit = n - List.length entries in
      let fill = if implicit = 0 then 0.0 else (1.0 -. explicit_mass) /. float_of_int implicit in
      (* an explicit NaN stays NaN, for [Hmm.validate] to reject *)
      let row = Array.make n fill in
      List.iter (fun (j, v) -> row.(j) <- v) entries;
      row
  | _ -> failwith ("bad row line: " ^ l)

let to_string (p : Profile.t) =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  line "adprom-profile 1";
  let pr = p.Profile.params in
  line "params %d %d %.17g %.17g %b %b" pr.Profile.window pr.Profile.max_states
    pr.Profile.cluster_fraction pr.Profile.pca_variance pr.Profile.use_labels
    pr.Profile.track_callers;
  line "threshold %.17g" p.Profile.threshold;
  line "alphabet %d" (Array.length p.Profile.alphabet);
  Array.iter (fun s -> line "%s" (encode_symbol s)) p.Profile.alphabet;
  let model = p.Profile.model in
  line "pi %s" (floats_to_line model.Hmm.pi);
  line "a %d" model.Hmm.n;
  for i = 0 to model.Hmm.n - 1 do
    line "%s" (sparse_row_to_line (Mlkit.Matrix.row model.Hmm.a i))
  done;
  line "b %d %d" model.Hmm.n model.Hmm.m;
  for i = 0 to model.Hmm.n - 1 do
    line "%s" (sparse_row_to_line (Mlkit.Matrix.row model.Hmm.b i))
  done;
  let pairs = Hashtbl.fold (fun (c, s) () acc -> (c, s) :: acc) p.Profile.known_pairs [] in
  line "pairs %d" (List.length pairs);
  List.iter (fun (c, s) -> line "%s %s" c (encode_symbol s)) pairs;
  let clustering = p.Profile.clustering in
  line "sites %d" (Array.length clustering.Reduction.sites);
  Array.iteri
    (fun i s -> line "%d %s" clustering.Reduction.assignment.(i) (encode_symbol s))
    clustering.Reduction.sites;
  Buffer.contents buf

exception Bad of string

let of_string text =
  let lines = ref (String.split_on_char '\n' text) in
  let next () =
    match !lines with
    | [] -> raise (Bad "unexpected end of profile")
    | l :: rest ->
        lines := rest;
        l
  in
  let floats_of_line l =
    Array.of_list
      (List.filter_map
         (fun tok -> if tok = "" then None else Some (float_of_string tok))
         (String.split_on_char ' ' l))
  in
  let expect_prefix prefix =
    let l = next () in
    let n = String.length prefix in
    if String.length l < n || String.sub l 0 n <> prefix then
      raise (Bad (Printf.sprintf "expected %s, got %S" prefix l));
    String.trim (String.sub l n (String.length l - n))
  in
  let sym s = match decode_symbol s with Ok v -> v | Error e -> raise (Bad e) in
  try
    if next () <> "adprom-profile 1" then raise (Bad "bad magic");
    let params_line = expect_prefix "params" in
    let params =
      match String.split_on_char ' ' params_line with
      | [ w; ms; cf; pv; ul; tc ] ->
          {
            Profile.default_params with
            Profile.window = int_of_string w;
            max_states = int_of_string ms;
            cluster_fraction = float_of_string cf;
            pca_variance = float_of_string pv;
            use_labels = bool_of_string ul;
            track_callers = bool_of_string tc;
          }
      | _ -> raise (Bad "bad params line")
    in
    let threshold = float_of_string (expect_prefix "threshold") in
    let k = int_of_string (expect_prefix "alphabet") in
    let alphabet = Array.init k (fun _ -> sym (next ())) in
    let pi = floats_of_line (expect_prefix "pi") in
    let n = int_of_string (expect_prefix "a") in
    let a = Mlkit.Matrix.of_arrays (Array.init n (fun _ -> sparse_row_of_line ~n (next ()))) in
    let bm = expect_prefix "b" in
    let n', m =
      match String.split_on_char ' ' bm with
      | [ n'; m ] -> (int_of_string n', int_of_string m)
      | _ -> raise (Bad "bad b header")
    in
    if n' <> n then raise (Bad "inconsistent state counts");
    if m <> Array.length alphabet then raise (Bad "emission/alphabet mismatch");
    let b = Mlkit.Matrix.of_arrays (Array.init n (fun _ -> sparse_row_of_line ~n:m (next ()))) in
    let model = Hmm.create ~a ~b ~pi in
    let pair_count = int_of_string (expect_prefix "pairs") in
    let known_pairs = Hashtbl.create (max 16 pair_count) in
    for _ = 1 to pair_count do
      let l = next () in
      match String.index_opt l ' ' with
      | Some i ->
          let caller = String.sub l 0 i in
          let s = String.sub l (i + 1) (String.length l - i - 1) in
          Hashtbl.replace known_pairs (caller, sym s) ()
      | None -> raise (Bad ("bad pair line: " ^ l))
    done;
    let site_count = int_of_string (expect_prefix "sites") in
    let entries =
      Array.init site_count (fun _ ->
          let l = next () in
          match String.index_opt l ' ' with
          | Some i ->
              ( int_of_string (String.sub l 0 i),
                sym (String.sub l (i + 1) (String.length l - i - 1)) )
          | None -> raise (Bad ("bad site line: " ^ l)))
    in
    let clustering =
      {
        Reduction.sites = Array.map snd entries;
        assignment = Array.map fst entries;
        states = n;
        reduced = site_count <> n;
      }
    in
    let obs_index = Symbol.Table.create 64 in
    Array.iteri (fun i o -> Symbol.Table.replace obs_index o i) alphabet;
    Ok
      {
        Profile.params;
        alphabet;
        obs_index;
        model;
        threshold;
        clustering;
        known_pairs;
        csds_history = [];
        rounds_run = 0;
      }
  with
  | Bad msg -> Error msg
  | Failure msg -> Error msg
  | Invalid_argument msg -> Error msg

let save p path =
  let oc = open_out_bin path in
  output_string oc (to_string p);
  close_out oc

let load path =
  match open_in_bin path with
  | ic ->
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      close_in ic;
      of_string text
  | exception Sys_error msg -> Error msg
