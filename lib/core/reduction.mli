(** Hidden-state reduction and HMM initialization (Sec. IV-C4).

    One hidden state per call site would be wasteful for large programs,
    so call sites with similar call-transition vectors (CTVs) are merged:
    CTV extraction → PCA → k-means, exactly the paper's reduction
    pipeline. The clustering then seeds the HMM: transition matrix [A]
    from the pCTM aggregated by cluster, emissions [B] from each
    cluster's member sites (weighted by their flow), and [pi] from the
    per-cluster flow (windows can start anywhere in a run). *)

type clustering = {
  sites : Analysis.Symbol.t array;  (** site symbols of the pCTM, sorted *)
  assignment : int array;  (** cluster (= hidden state) of each site *)
  states : int;
  reduced : bool;  (** did k-means actually run? *)
}

val ctv_matrix : Analysis.Ctm.t -> Analysis.Symbol.t array * Mlkit.Matrix.t
(** Call-transition vectors: row i is the CTV of site i — its outgoing
    row over (Exit + all sites) concatenated with its incoming column
    over (Entry + all sites); dimension [2 (n+1)] for [n] sites. *)

val cluster :
  rng:Mlkit.Rng.t ->
  max_states:int ->
  cluster_fraction:float ->
  pca_variance:float ->
  Analysis.Ctm.t ->
  clustering
(** Identity clustering when the site count is within [max_states]
    (the paper clusters only programs beyond ~900 states); otherwise
    PCA + k-means down to [cluster_fraction * sites] states. *)

val init_hmm :
  Analysis.Ctm.t -> clustering -> alphabet:Analysis.Symbol.t array -> Hmm.t
(** Probability-forecast initialization of the HMM (the paper's
    alternative to random initialization). *)
