/* The three O(n^2)-per-step kernels of the HMM library: the forward
   step, the backward pass's row sums and the xi row update.

   Each one computes a set of independent outputs, and SIMD lanes run
   only across those outputs, never along one output's sum: every
   output element adds its terms one at a time, in the same order as
   the row-at-a-time OCaml reference, so every result is bit for bit
   the reference's. This holds only while the compiler neither fuses a
   multiply into an add nor reassociates: the file is built with
   -ffp-contract=off, without -ffast-math, and with no host-specific
   instruction-set flag. Skipping a term whose weight is zero is exact
   only for finite table entries, which [Hmm.validate] guarantees.

   The tables come in as OCaml values: a [float array] is a flat block
   of doubles, a [float array array] a block of pointers to such rows.
   None of the kernels allocates, raises or releases the runtime lock,
   so they are [@@noalloc] externals. */

#include <caml/mlvalues.h>
#include <string.h>

typedef double v2d __attribute__((vector_size(16)));

/* OCaml float arrays are 8-byte aligned only. */
static inline v2d load2(const double *p)
{
  v2d v;
  memcpy(&v, p, sizeof v);
  return v;
}

static inline void store2(double *p, v2d v)
{
  memcpy(p, &v, sizeof v);
}

static inline mlsize_t float_length(value v)
{
  return Wosize_val(v) / Double_wosize;
}

/* dst[j0 .. j0+2nv) <- Σ_i w[i] · m[i][j0 ..], terms in increasing i,
   each output's sum starting from 0.0. With [skip], rows whose weight
   is not positive (or NaN) add no term; their term would be ±0.0,
   which leaves a sum that starts at +0.0 unchanged. [nv] is a
   compile-time constant at every call, so [acc] lives in registers. */
static inline __attribute__((always_inline)) void
weighted_rows_tile(const int nv, const int skip, mlsize_t rows, value m,
                   const double *w, double *dst, mlsize_t j0)
{
  v2d acc[8];
  for (int k = 0; k < nv; k++) acc[k] = (v2d){ 0.0, 0.0 };
  for (mlsize_t i = 0; i < rows; i++) {
    double p = w[i];
    if (skip && !(p > 0.0)) continue;
    const double *mi = (const double *)Field(m, i) + j0;
    v2d pv = { p, p };
    for (int k = 0; k < nv; k++) acc[k] += pv * load2(mi + (2 * k));
  }
  for (int k = 0; k < nv; k++) store2(dst + j0 + (2 * k), acc[k]);
}

/* The same over all [n] outputs: blocks of 16, then one block each of
   8, 4 and 2 as the remainder needs, then a last odd column. */
static inline __attribute__((always_inline)) void
weighted_rows(const int skip, mlsize_t rows, value m, const double *w, double *dst,
              mlsize_t n)
{
  mlsize_t j0 = 0;
  for (; j0 + 16 <= n; j0 += 16) weighted_rows_tile(8, skip, rows, m, w, dst, j0);
  if (j0 + 8 <= n) { weighted_rows_tile(4, skip, rows, m, w, dst, j0); j0 += 8; }
  if (j0 + 4 <= n) { weighted_rows_tile(2, skip, rows, m, w, dst, j0); j0 += 4; }
  if (j0 + 2 <= n) { weighted_rows_tile(1, skip, rows, m, w, dst, j0); j0 += 2; }
  if (j0 < n) {
    double acc = 0.0;
    for (mlsize_t i = 0; i < rows; i++) {
      double p = w[i];
      if (skip && !(p > 0.0)) continue;
      acc += p * ((const double *)Field(m, i))[j0];
    }
    dst[j0] = acc;
  }
}

/* Forward step: dst[j] <- Σ_i src[i] · a[i][j] over the rows i with
   src[i] > 0, in increasing i; lanes across j. */
value adprom_hmm_propagate(value a, value src, value dst)
{
  mlsize_t n = float_length(dst);
  weighted_rows(1, n, a, (const double *)src, (double *)dst, n);
  return Val_unit;
}

/* Backward row sums: sums[i] <- Σ_j a[i][j] · x[j], in increasing j,
   read from the transposed table [at] (at[j][i] = a[i][j]) so that the
   lanes run across rows i. No term is skipped, as in the reference. */
value adprom_hmm_row_sums(value at, value x, value sums)
{
  mlsize_t n = float_length(sums);
  weighted_rows(0, n, at, (const double *)x, (double *)sums, n);
  return Val_unit;
}

/* xi row update: for each step s < steps with coef[s] > 0, in
   increasing s, row[j] <- row[j] + (coef[s] · a_i[j]) · bb[s][j]; lanes
   across j. */
static inline __attribute__((always_inline)) void
xi_tile(const int nv, mlsize_t steps, const double *coef, value bb, const double *ai,
        double *row, mlsize_t j0)
{
  v2d acc[8];
  for (int k = 0; k < nv; k++) acc[k] = load2(row + j0 + (2 * k));
  for (mlsize_t s = 0; s < steps; s++) {
    double c = coef[s];
    if (!(c > 0.0)) continue;
    const double *x = (const double *)Field(bb, s) + j0;
    v2d cv = { c, c };
    for (int k = 0; k < nv; k++)
      acc[k] += (cv * load2(ai + j0 + (2 * k))) * load2(x + (2 * k));
  }
  for (int k = 0; k < nv; k++) store2(row + j0 + (2 * k), acc[k]);
}

value adprom_hmm_xi_row(value vsteps, value vcoef, value bb, value vai, value vrow)
{
  mlsize_t steps = Long_val(vsteps), n = float_length(vrow);
  const double *coef = (const double *)vcoef, *ai = (const double *)vai;
  double *row = (double *)vrow;
  mlsize_t j0 = 0;
  for (; j0 + 16 <= n; j0 += 16) xi_tile(8, steps, coef, bb, ai, row, j0);
  if (j0 + 8 <= n) { xi_tile(4, steps, coef, bb, ai, row, j0); j0 += 8; }
  if (j0 + 4 <= n) { xi_tile(2, steps, coef, bb, ai, row, j0); j0 += 4; }
  if (j0 + 2 <= n) { xi_tile(1, steps, coef, bb, ai, row, j0); j0 += 2; }
  if (j0 < n) {
    double acc = row[j0];
    for (mlsize_t s = 0; s < steps; s++) {
      double c = coef[s];
      if (!(c > 0.0)) continue;
      acc += (c * ai[j0]) * ((const double *)Field(bb, s))[j0];
    }
    row[j0] = acc;
  }
  return Val_unit;
}
