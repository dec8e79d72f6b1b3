(** The Calls Collector component (Sec. IV-B2).

    The interpreter reports every library call through a collector as
    one {!event}: the call symbol (with its dynamic DB-output label)
    and the caller function — the light-weight design the paper
    credits for the ~78% overhead reduction over ltrace. A call site's
    events are built once, by {!Analysis.Analyzer.site_event}, so the
    AD-PROM collector appends a shared record rather than allocating
    one per call; {!Ltrace} still renders every call in full. *)

type event = Analysis.Analyzer.event = {
  symbol : Analysis.Symbol.t;
  caller : string;
  block : int;  (** static block id of the call site; -1 when unknown *)
}
(** Immutable and shared: compare with [=], never with [==]. *)

type trace = event array

type t = { emit : event -> args:Rvalue.t list -> unit }

val null : t
(** Discards everything (uninstrumented run). *)

val adprom : unit -> t * (unit -> trace)
(** AD-PROM's collector: appends each reported event as it is; the
    second component returns the trace collected so far. *)

val with_obs :
  ?session:int -> ?ring:Adprom_obs.Log.event Adprom_obs.Ring.t -> t -> t
(** Wrap a collector so every reported call is also emitted as a
    [Debug] event on the structured log (and into [ring], if given),
    tagged with the session id and the current trace id — the joining
    keys between a collected trace and the span tree that produced it.
    Free when the log threshold is above [Debug]. *)

(** A decoder's bounded event cache: one per connection, so a stream
    that repeats an event decodes it to one record. Direct-mapped with
    a short probe window over a fixed number of slots; a miss
    overwrites a slot, so a peer sending only distinct events cannot
    grow it. *)
module Cache : sig
  type t

  val create : unit -> t

  val share : t -> hash:int -> event -> event
  (** The cached event equal to [e] if one sits within [hash]'s probe
      window, else [e], which is cached. [hash] is any function of the
      event's fields; equal events must get equal hashes. *)

  val home : t -> hash:int -> event
  (** The event in [hash]'s home slot, the first {!share} probes: a
      decoder that compares it with what it read skips building a
      record for a repeat. A never-filled slot holds a placeholder. *)
end
