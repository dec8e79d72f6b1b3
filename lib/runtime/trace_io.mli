(** Trace persistence: record library-call traces on the monitored host,
    train elsewhere. One event per line: [caller<TAB>block<TAB>symbol],
    with the symbol in the same encoding as {!Adprom.Profile_io} (name,
    optional Q-label, optional site).

    Parsing is total: malformed input always yields [Error "line N: ..."]
    (with a 1-based line number), never an exception. Blank lines and
    CRLF endings are tolerated. *)

val encode_symbol : Analysis.Symbol.t -> string
(** The canonical one-token symbol encoding ([entry], [exit], [func:f],
    [lib:name:label:site] with [-] for absent label/site), shared with
    the service wire codec. *)

val decode_symbol : string -> (Analysis.Symbol.t, string) result

val parse_event :
  ?cache:Collector.Cache.t -> string -> (Collector.event, string) result
(** Parse one [caller<TAB>block<TAB>symbol] line (no line-number
    context; {!of_string} adds it). With [cache], an event equal to one
    cached there comes back as that record: the text wire's decoder
    keeps one per connection. *)

val to_string : Collector.trace -> string

val of_string : string -> (Collector.trace, string) result

val save : Collector.trace -> string -> unit

val load : string -> (Collector.trace, string) result
