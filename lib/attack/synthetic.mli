(** Synthetic anomalous sequences of the scalability experiment
    (Sec. V-D): A-S1 (tail replaced by random legitimate calls), A-S2
    (foreign calls inserted), A-S3 (frequency of a legitimate call
    inflated). Each generator perturbs a normal window into an
    anomalous one; all are deterministic given the RNG. *)

val batch :
  rng:Mlkit.Rng.t ->
  legitimate:Analysis.Symbol.t array ->
  kind:[ `S1 | `S2 | `S3 ] ->
  count:int ->
  Adprom.Window.t list ->
  Adprom.Window.t list
(** Sample [count] windows (with replacement) from the pool and perturb
    each by [kind]:
    - [`S1] replaces the last 5 calls (fewer on short windows) with
      uniformly random [legitimate] calls;
    - [`S2] overwrites 1-3 random positions with library calls outside
      the legitimate set ([evil_exfil], ...);
    - [`S3] picks a position in the first half and repeats its call over
      the following 5-8 slots, inflating the frequency of a legitimate
      call (the fetch/print burst of harvesting attacks).
    @raise Invalid_argument on an empty pool, and for [`S1] on an empty
    [legitimate]. *)
