type reason =
  | Unknown_signature of string
  | Impossible_signature of string
  | Malformed of string
  | Tautology
  | Constant_comparison
  | Slot_violation of { slot : int; why : string }
  | Cardinality_blowup of { rows : int; lo : int; hi : int }

type verdict = { anomalous : bool; reasons : reason list }

let normal = { anomalous = false; reasons = [] }

let reason_to_string = function
  | Unknown_signature s -> Printf.sprintf "unknown signature %s" s
  | Impossible_signature s ->
      Printf.sprintf "statically impossible signature %s" s
  | Malformed msg -> Printf.sprintf "unparseable query (%s)" msg
  | Tautology -> "tautology-widened WHERE clause"
  | Constant_comparison -> "constant comparison in WHERE clause"
  | Slot_violation { slot; why } -> Printf.sprintf "slot %d: %s" slot why
  | Cardinality_blowup { rows; lo; hi } ->
      Printf.sprintf "result cardinality %d outside the trained band [%d, %d]" rows lo hi

let verdict_to_string v =
  if not v.anomalous then "normal"
  else String.concat "; " (List.map reason_to_string v.reasons)

(* Everything derivable from the query text alone — signature lookup,
   widening warnings, slot-constraint checks, the static-gate verdict —
   is memoized per raw text; only the cardinality band is applied per
   call. [gate_impossible] holds the canonical signature when the
   loaded static set proves the program cannot emit it. *)
type compiled = {
  static_reasons : reason list;
  band : Constraints.band option;
  gate_impossible : string option;
}

(* The signature set Qstatic inferred for the monitored program. Only a
   [complete] set (no open call sites) may reject: an open site means
   the inference lost track of some query text, so absence proves
   nothing. *)
type static = { static_set : (string, unit) Hashtbl.t; static_complete : bool }

type t = {
  profile : Profile.t;
  policy : Constraints.policy;
  codes : (string, int) Hashtbl.t;  (** signature text -> dense code *)
  entries : Profile.entry array;  (** indexed by code *)
  memo : (string, compiled) Hashtbl.t;
  memo_capacity : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable checks : int;
  mutable anomalies : int;
  mutable parse_errors : int;
  mutable static : static option;
  mutable gate_enforce : bool;
  mutable gate_checks : int;
  mutable gate_rejections : int;
}

let default_memo_capacity = 4096

let create ?(policy = Constraints.Strict) ?(memo_capacity = default_memo_capacity)
    profile =
  if memo_capacity < 0 then invalid_arg "Adprom_qsig.Engine.create: negative capacity";
  let keys = Profile.signatures profile in
  let codes = Hashtbl.create (List.length keys * 2) in
  List.iteri (fun i key -> Hashtbl.replace codes key i) keys;
  let entries =
    Array.of_list
      (List.map
         (fun key ->
           match Profile.find_by_text profile key with
           | Some e -> e
           | None -> assert false)
         keys)
  in
  {
    profile;
    policy;
    codes;
    entries;
    memo = Hashtbl.create 64;
    memo_capacity;
    memo_hits = 0;
    memo_misses = 0;
    checks = 0;
    anomalies = 0;
    parse_errors = 0;
    static = None;
    gate_enforce = false;
    gate_checks = 0;
    gate_rejections = 0;
  }

let profile t = t.profile
let policy t = t.policy
let signature_count t = Array.length t.entries

let gate_verdict t key =
  match t.static with
  | Some { static_set; static_complete = true }
    when not (Hashtbl.mem static_set key) ->
      Some key
  | _ -> None

let compile t sql =
  match Sqldb.Sql_parser.parse sql with
  | Error msg ->
      t.parse_errors <- t.parse_errors + 1;
      (* Malformed texts are never gate-rejected: they already carry a
         Malformed anomaly and have no canonical signature to test. *)
      { static_reasons = [ Malformed msg ]; band = None; gate_impossible = None }
  | Ok stmt -> (
      let widening =
        List.map
          (function
            | Signature.Tautology -> Tautology
            | Signature.Constant_comparison -> Constant_comparison)
          (Signature.widening_warnings stmt)
      in
      let key = Signature.to_string (Signature.of_statement stmt) in
      let gate_impossible = gate_verdict t key in
      match Hashtbl.find_opt t.codes key with
      | None ->
          {
            static_reasons = widening @ [ Unknown_signature key ];
            band = None;
            gate_impossible;
          }
      | Some code ->
          let entry = t.entries.(code) in
          let observed = Signature.slots stmt in
          let violations = ref [] in
          Array.iteri
            (fun i values ->
              if i < Array.length entry.Profile.slots then
                List.iter
                  (fun why -> violations := Slot_violation { slot = i; why } :: !violations)
                  (Constraints.check_all t.policy entry.Profile.slots.(i) values))
            observed;
          {
            static_reasons = widening @ List.rev !violations;
            band = Some entry.Profile.band;
            gate_impossible;
          })

let lookup t sql =
  match Hashtbl.find_opt t.memo sql with
  | Some c ->
      t.memo_hits <- t.memo_hits + 1;
      c
  | None ->
      t.memo_misses <- t.memo_misses + 1;
      let c = compile t sql in
      if t.memo_capacity > 0 then begin
        (* Epoch eviction: a full memo is cleared wholesale. Cheap, and
           the working set of distinct query texts re-fills it fast. *)
        if Hashtbl.length t.memo >= t.memo_capacity then Hashtbl.reset t.memo;
        Hashtbl.replace t.memo sql c
      end;
      c

let check ?rows t sql =
  t.checks <- t.checks + 1;
  let c = lookup t sql in
  if t.static <> None then t.gate_checks <- t.gate_checks + 1;
  match c.gate_impossible with
  | Some key when t.gate_enforce ->
      (* Enforce short-circuits before the constraint layer: the program
         provably cannot emit this shape, so slot/band detail is moot. *)
      t.gate_rejections <- t.gate_rejections + 1;
      t.anomalies <- t.anomalies + 1;
      { anomalous = true; reasons = [ Impossible_signature key ] }
  | gate ->
      (* Explain mode counts the would-be rejection but leaves the
         verdict bit-for-bit what the ungated engine produces. *)
      if gate <> None then t.gate_rejections <- t.gate_rejections + 1;
      let reasons =
        match (rows, c.band) with
        | Some rows, Some band -> (
            match Constraints.band_check t.policy band rows with
            | Some (lo, hi) ->
                c.static_reasons @ [ Cardinality_blowup { rows; lo; hi } ]
            | None -> c.static_reasons)
        | _ -> c.static_reasons
      in
      if reasons = [] then normal
      else begin
        t.anomalies <- t.anomalies + 1;
        { anomalous = true; reasons }
      end

let check_log t log = List.map (fun (sql, rows) -> check ~rows t sql) log

let checks t = t.checks
let anomalies t = t.anomalies
let parse_errors t = t.parse_errors
let memo_hits t = t.memo_hits
let memo_misses t = t.memo_misses
let memo_len t = Hashtbl.length t.memo
let invalidate t = Hashtbl.reset t.memo

let set_static_signatures t ~complete keys =
  let static_set = Hashtbl.create (List.length keys * 2) in
  List.iter (fun k -> Hashtbl.replace static_set k ()) keys;
  t.static <- Some { static_set; static_complete = complete };
  (* Memoized entries were compiled against the previous (or no) static
     set; their cached gate verdicts are stale. *)
  invalidate t

let static_signatures_loaded t = t.static <> None
let set_gate_enforce t on = t.gate_enforce <- on
let gate_enforced t = t.gate_enforce
let gate_checks t = t.gate_checks
let gate_rejections t = t.gate_rejections

module Scorer = struct
  type engine = t

  type nonrec t = {
    engine : engine;
    mutable queries_seen : int;
    mutable scorer_anomalies : int;
    mutable last : verdict option;
  }

  let create engine = { engine; queries_seen = 0; scorer_anomalies = 0; last = None }

  let engine s = s.engine

  let push s ?rows sql =
    let v = check ?rows s.engine sql in
    s.queries_seen <- s.queries_seen + 1;
    if v.anomalous then s.scorer_anomalies <- s.scorer_anomalies + 1;
    s.last <- Some v;
    v

  let queries_seen s = s.queries_seen
  let anomalies s = s.scorer_anomalies
  let last s = s.last
end
