(** K-means clustering with k-means++ seeding.

    Used to merge system calls whose call-transition vectors are similar
    into a single HMM hidden state (Sec. IV-C4). The algorithm is
    deterministic given the [Rng.t] seed. *)

type result = {
  assignment : int array;  (** cluster index of each observation *)
  centroids : Matrix.t;  (** one centroid per row *)
  inertia : float;  (** sum of squared distances to assigned centroids *)
  iterations : int;
}

val seed_centroids : Rng.t -> int -> float array array -> float array array
(** [seed_centroids rng k rows] picks [k] of [rows] (k >= 1) by
    k-means++: the first uniformly, each next one with probability
    proportional to its squared distance to the nearest one picked so
    far, or uniformly when every such distance is zero. The rows picked
    are returned in order, as the rows themselves, not copies. *)

val cluster : rng:Rng.t -> k:int -> Matrix.t -> result
(** [cluster ~rng ~k data] clusters the rows of [data] into at most [k]
    groups. If [k] exceeds the number of distinct rows, the effective
    number of clusters may be smaller; empty clusters are dropped and
    indices compacted, so [assignment] always targets a dense range.
    @raise Invalid_argument if [k <= 0] or [data] has no rows. *)

val cluster_members : result -> int array array
(** [cluster_members r] lists observation indices per cluster. *)
