(** A web application subject — the paper's future work (Sec. VIII)
    made concrete: a REST-ish customer portal served by the request-loop
    builtins ([http_next_request], [http_param], [http_respond], ...).

    Routes: [GET /customer] (lookup by id, prepared), [GET /search]
    (name search — {e deliberately} built by string concatenation, the
    web-shaped version of the Fig. 2 vulnerability), [POST /order],
    [GET /report] (aggregates), anything else is a 404. *)

val app : unit -> Adprom.Pipeline.app
(** 60 request-session test cases. *)

val injection_session : Runtime.Testcase.t
(** A session whose /search parameter carries a tautology: harvests the
    whole customer table through the response. *)
