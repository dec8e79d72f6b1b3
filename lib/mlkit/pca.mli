(** Principal component analysis.

    Used by the profile constructor to reduce the dimensionality of
    call-transition vectors (pCTV) before k-means clustering, as in
    Sec. IV-C4 of the paper. There are far fewer observations than
    features there (n call sites have 2(n+1)-wide CTVs), so {!fit}
    decomposes the rows x rows Gram matrix of the centred data, which
    has the covariance's nonzero spectrum, with the cyclic Jacobi
    method, and maps each kept axis back to feature space. *)

type model = {
  mean : float array;  (** per-feature mean of the training data *)
  components : Matrix.t;  (** one principal axis per row, unit norm *)
  eigenvalues : float array;  (** variance along each axis, descending *)
}

val jacobi_eigen : Matrix.t -> float array * Matrix.t
(** [jacobi_eigen m] for a symmetric matrix returns [(values, vectors)]
    with eigenvalues in descending order and the corresponding unit
    eigenvectors as the {e rows} of [vectors]. Cyclic Jacobi sweeps,
    run by a C kernel in place on flat row-major copies of A and of the
    accumulated rotations, kept transposed, so two of each rotation's
    three updates (A's rows, V's columns) run along a contiguous row and
    only A's column update is strided. The kernel is built without
    fused multiply-adds and keeps the rotation order and every
    per-element expression, so the results are bit for bit those of the
    textbook routine. The sort of the spectrum and the assembly of the
    result stay in OCaml. Also the eigensolver of the covariance-side
    oracle ([test/pca_oracle.ml]) that test_mlkit's "fit =
    covariance-side oracle, wide and tall data" holds {!fit} to.
    @raise Invalid_argument if [m] is not square. *)

val fit : variance_kept:float -> Matrix.t -> model
(** [fit data] treats each row of [data] as an observation. Components
    are retained until [variance_kept] of the total variance is
    explained, then while the next eigenvalue lies within [1e-9] times
    the largest of the last kept one, so a cut never splits a tie
    (which axes of a tie an eigensolver returns is down to rounding).
    Never more than [min rows cols] are kept, but always at least one.

    [fit] eigendecomposes the Gram matrix [Xc·Xcᵀ / (rows - 1)] of the
    centred rows [Xc], not the covariance [Xcᵀ·Xc / (rows - 1)]: the two
    share their nonzero eigenvalues, and a Gram eigenvector [u] gives
    the covariance axis [Xcᵀu / ‖Xcᵀu‖]. The result matches the
    covariance-side fit up to the eigensolver's rounding (and the sign
    of each axis). The solve costs O(rows³), so [fit] suits data with
    few observations, however many features. *)

val transform : model -> Matrix.t -> Matrix.t
(** Project observations (rows) into the principal subspace: each
    coordinate is the sum of [(x_j - mean_j) * axis_j] over the features
    in order. The reference for {!fit_transform}'s projection, compared
    by test_mlkit's "fit_transform = transform of fit, bit for bit".
    @raise Invalid_argument if [data]'s width is not the model's. *)

val fit_transform : variance_kept:float -> Matrix.t -> model * Matrix.t
(** [fit data] and the projection of [data], from the centred rows the
    fit built: bit for bit [transform (fit data) data]. *)
