(** Printing and normalization of SQL statements.

    [signature] renders a statement with every literal replaced by [?],
    yielding the "query signature" of Sec. VII of the paper: recording
    signatures along with library calls mitigates attacks that keep the
    call sequence intact but alter the query structure. *)

val to_string : Sql_ast.statement -> string
(** Canonical rendering; parses back to an equal statement (modulo
    placeholder numbering). *)

val signature : Sql_ast.statement -> string
(** Literal-erased canonical form, e.g.
    [SELECT * FROM clients WHERE id = ?]. Two queries that differ only
    in constants share a signature; structural changes (extra OR,
    different columns) do not.

    Canonicalization rules: keyword case and whitespace are normalized
    by the parser; [LIMIT n] erases to [LIMIT ?]; IN-lists collapse to
    an arity class [(?{1})], [(?{few})] (2..8 members) or [(?{many})]
    (>8), so equivalent statements differing only in IN-list length
    share a signature; multi-tuple INSERTs collapse to the first tuple
    plus an [{xfew}]/[{xmany}] marker.

    Migration note (profile stability): before this change the dialect
    had no IN operator — every IN query was unparseable and mapped to
    the profile's malformed bucket — and no statement in the shipped
    datasets uses LIMIT with trained profiles persisted, so signatures
    learned by earlier query-signature profiles are unchanged; only
    previously-malformed IN queries gain real signatures. *)

val signature_of_sql : string -> string option
(** Convenience: parse then [signature]; [None] when the text is not
    parseable SQL. *)
