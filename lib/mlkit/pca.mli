(** Principal component analysis.

    Used by the profile constructor to reduce the dimensionality of
    call-transition vectors (pCTV) before k-means clustering, as in
    Sec. IV-C4 of the paper. Eigendecomposition of the covariance matrix
    is computed with the cyclic Jacobi method, which is robust for the
    small symmetric matrices arising here. *)

type model = {
  mean : float array;  (** per-feature mean of the training data *)
  components : Matrix.t;  (** one principal axis per row, unit norm *)
  eigenvalues : float array;  (** variance along each axis, descending *)
}

val jacobi_eigen : Matrix.t -> float array * Matrix.t
(** [jacobi_eigen m] for a symmetric matrix returns [(values, vectors)]
    with eigenvalues in descending order and the corresponding unit
    eigenvectors as the {e rows} of [vectors]. Cyclic Jacobi sweeps
    with the accumulated rotations kept transposed, so two of each
    rotation's three updates (A's rows, V's columns) run along a
    contiguous row. The rotations, and so the results, are bit for bit
    those of the textbook routine.
    @raise Invalid_argument if [m] is not square. *)

val covariance : Matrix.t -> float array -> Matrix.t
(** [covariance data mean] is the sample covariance of the rows of
    [data] about [mean] (one entry per column), over [rows - 1] (at
    least 1): the matrix {!fit} decomposes.
    @raise Invalid_argument if [mean] does not have one entry per
    column. *)

val fit : ?variance_kept:float -> ?max_components:int -> Matrix.t -> model
(** [fit data] treats each row of [data] as an observation. Components
    are retained until [variance_kept] (default [0.95]) of the total
    variance is explained, capped at [max_components] when given. *)

val transform : model -> Matrix.t -> Matrix.t
(** Project observations (rows) into the principal subspace. *)

val fit_transform : ?variance_kept:float -> ?max_components:int -> Matrix.t -> model * Matrix.t

val explained_variance_ratio : model -> float array
