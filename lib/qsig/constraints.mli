(** Per-slot constraint lattice and result-cardinality bands.

    Each literal slot of a trained signature carries a constraint
    learned from the values observed during training: an integer range
    plus a small value set, or a string shape class (digits / alpha /
    alphanumeric / other) with a length band and a small value set.
    Mixed types or free placeholders degrade to Top (anything goes).

    Two policy modes follow DetAnom: [Strict] enforces the tightest
    summary held (value set if still small, else range / shape+length);
    [Flexible] widens ranges by their span and length bands, accepting
    drift. Every Flexible violation is also a Strict violation, so
    enforce-mode anomalies are a superset of warn-mode ones when warn
    runs Flexible. *)

type policy = Strict | Flexible

type shape = Digits | Alpha | Alnum | Other_shape

type t
(** One slot's constraint. *)

val bot : t
(** No observation yet. *)

val top : t
(** Anything goes. *)

val observe : t -> Signature.slot_value -> t
val observe_all : t -> Signature.slot_value list -> t

val check : policy -> t -> Signature.slot_value -> string option
(** [None] when the value conforms; [Some why] otherwise. *)

val check_all : policy -> t -> Signature.slot_value list -> string list

(** {1 Result-cardinality bands} *)

type band = { blo : int; bhi : int; samples : int }

val band_empty : band
val band_observe : band -> int -> band

val band_check : policy -> band -> int -> (int * int) option
(** [Some (lo, hi)] — the trained band — when [rows] falls outside it.
    Strict flags both directions; Flexible only blowups past
    [4*hi + 8]. A band with no samples never flags. *)

(** {1 Serialization} *)

val slot_to_string : t -> string
(** Single-line, tab-free form for profile files. *)

val slot_of_string : string -> t option
