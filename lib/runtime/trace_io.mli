(** The text codec of one library-call event: [caller<TAB>block<TAB>symbol],
    with the symbol as one colon-separated token. The service's text
    wire ([Adprom_service.Transport.Text]) prefixes each such line with
    a session id; files recorded on that wire are the one text format
    for events. The binary wire and [Adprom.Profile_io] reuse the
    symbol encoding.

    Parsing is total: malformed input yields [Error], never an
    exception. *)

val encode_symbol : Analysis.Symbol.t -> string
(** The canonical one-token symbol encoding ([entry], [exit], [func:f],
    [lib:name:label:site] with [-] for absent label/site), shared with
    the service wire codecs and profile files. *)

val decode_symbol : string -> (Analysis.Symbol.t, string) result

val parse_event :
  ?cache:Collector.Cache.t -> string -> (Collector.event, string) result
(** Parse one [caller<TAB>block<TAB>symbol] line (no line-number
    context; the text wire's decoder adds it). With [cache], an event
    equal to one cached there comes back as that record: the text
    wire's decoder keeps one per connection. *)
