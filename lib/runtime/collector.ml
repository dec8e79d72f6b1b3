type event = Analysis.Analyzer.event = {
  symbol : Analysis.Symbol.t;
  caller : string;
  block : int;
}

type trace = event array

type t = { emit : event -> args:Rvalue.t list -> unit }

let null = { emit = (fun _ ~args:_ -> ()) }

let adprom () =
  let events = ref [] in
  let emit ev ~args:_ = events := ev :: !events in
  let trace () = Array.of_list (List.rev !events) in
  ({ emit }, trace)

let with_obs ?session ?ring inner =
  let emit ev ~args =
    inner.emit ev ~args;
    if Adprom_obs.Log.enabled Adprom_obs.Log.Debug then begin
      let fields =
        [
          ("symbol", Adprom_obs.Log.Str (Analysis.Symbol.to_string ev.symbol));
          ("caller", Adprom_obs.Log.Str ev.caller);
          ("block", Adprom_obs.Log.Int ev.block);
        ]
      in
      let fields =
        match session with
        | Some s -> ("session", Adprom_obs.Log.Int s) :: fields
        | None -> fields
      in
      let fields =
        match Adprom_obs.Trace.current_trace_id () with
        | Some tid -> ("trace_id", Adprom_obs.Log.Int tid) :: fields
        | None -> fields
      in
      Adprom_obs.Log.emit ?ring ~fields Adprom_obs.Log.Debug ~scope:"collector"
        "library call"
    end
  in
  { emit }

module Cache = struct
  type t = event array

  let bits = 10
  let slots = 1 lsl bits (* a workload's stream holds 100-odd distinct events *)
  let window = 4

  (* the placeholder in never-filled slots *)
  let empty = { symbol = Analysis.Symbol.Entry; caller = ""; block = min_int }

  let create () = Array.make slots empty

  let[@inline] same_int_opt a b =
    match (a, b) with
    | None, None -> true
    | Some x, Some y -> x = y
    | None, Some _ | Some _, None -> false

  (* the binary decoder's strings come from its interning table, so the
     physical test settles most comparisons without a C call *)
  let[@inline] same_string x y = x == y || String.equal x y

  let[@inline] same_symbol (a : Analysis.Symbol.t) (b : Analysis.Symbol.t) =
    match (a, b) with
    | Entry, Entry | Exit, Exit -> true
    | Func x, Func y -> same_string x y
    | Lib x, Lib y ->
        same_string x.name y.name && same_int_opt x.label y.label
        && same_int_opt x.site y.site
    | (Entry | Exit | Func _ | Lib _), _ -> false

  let[@inline] same a b =
    a.block = b.block && same_string a.caller b.caller && same_symbol a.symbol b.symbol

  (* multiplicative hashing: the product's top bits pick the home slot *)
  let[@inline] home hash = (hash * 0x2545F4914F6CDD1D) lsr (Sys.int_size - bits)

  (* slots [h], [h + 1], ... of the window; a full window gives up [h] *)
  let rec probe c h e k =
    if k = window then begin
      Array.unsafe_set c h e;
      e
    end
    else
      let i = (h + k) land (slots - 1) in
      let old = Array.unsafe_get c i in
      if old == empty then begin
        Array.unsafe_set c i e;
        e
      end
      else if same old e then old
      else probe c h e (k + 1)

  let share c ~hash e = probe c (home hash) e 0

  let home c ~hash = Array.unsafe_get c (home hash)
end
