/* The mlkit library's C side: the sweep loop of [Pca.jacobi_eigen].

   It does, in the same order, every floating-point operation of the
   OCaml loop it replaced, so its results are bit for bit that loop's.
   SIMD lanes run only across independent elements (along a row in the
   row updates, across two rows in the column update), never along a
   sum. This holds only while the compiler neither fuses a multiply
   into an add nor reassociates: the file is built with
   -ffp-contract=off, without -ffast-math, and with no host-specific
   instruction-set flag.

   Tables are flat row-major blocks of doubles: an OCaml [float array]
   is one, and so is the data of a [Matrix.t]. */

#include <caml/mlvalues.h>
#include <math.h>
#include <stddef.h>

#include "float_guard.h"

typedef double v2d __attribute__((vector_size(16)));

/* Σ a[i][j]² over i < j, in row-major order, from 0.0. */
static double off_diagonal_mass(const double *a, size_t n)
{
  double acc = 0.0;
  for (size_t i = 0; i < n; i++)
    for (size_t j = i + 1; j < n; j++) {
      double x = a[i * n + j];
      acc = acc + x * x;
    }
  return acc;
}

/* Rows p and q of [x] (p ≠ q). */
static void rotate_rows(double *x, size_t n, size_t p, size_t q, double c, double s)
{
  double *restrict xp = x + p * n;
  double *restrict xq = x + q * n;
  for (size_t k = 0; k < n; k++) {
    double xpk = xp[k], xqk = xq[k];
    xp[k] = c * xpk - s * xqk;
    xq[k] = s * xpk + c * xqk;
  }
}

/* Columns p and q of [x] (p ≠ q), strided: each row's pair is
   independent of every other row's, so the lanes take two rows. */
static void rotate_columns(double *x, size_t n, size_t p, size_t q, double c, double s)
{
  const v2d cv = {c, c}, sv = {s, s};
  size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    double *x0 = x + k * n, *x1 = x0 + n;
    v2d xp = {x0[p], x1[p]}, xq = {x0[q], x1[q]};
    v2d yp = cv * xp - sv * xq, yq = sv * xp + cv * xq;
    x0[p] = yp[0];
    x1[p] = yp[1];
    x0[q] = yq[0];
    x1[q] = yq[1];
  }
  for (; k < n; k++) {
    double *xk = x + k * n;
    double xkp = xk[p], xkq = xk[q];
    xk[p] = c * xkp - s * xkq;
    xk[q] = s * xkp + c * xkq;
  }
}

/* The rotation that zeroes a[p][q]: A's columns p and q, then A's rows
   p and q and Vᵀ's rows p and q. An off-diagonal element already
   within 1e-14 of zero is skipped. */
static void rotate(double *a, double *vt, size_t n, size_t p, size_t q)
{
  double apq = a[p * n + q];
  if (!(fabs(apq) > 1e-14))
    return;
  double theta = (a[q * n + q] - a[p * n + p]) / (2.0 * apq);
  double sign = theta >= 0.0 ? 1.0 : -1.0;
  double t = sign / (fabs(theta) + sqrt(theta * theta + 1.0));
  double c = 1.0 / sqrt(t * t + 1.0);
  double s = t * c;
  rotate_columns(a, n, p, q, c, s);
  rotate_rows(a, n, p, q, c, s);
  rotate_rows(vt, n, p, q, c, s);
}

/* [jacobi_sweeps a vt n max_sweeps]: cyclic Jacobi sweeps, in place on
   the flat n×n symmetric matrix [a] and the accumulated rotations [vt]
   (kept transposed), until the off-diagonal mass is at most 1e-18 or
   [max_sweeps] sweeps have run. It does not allocate, raise or release
   the runtime lock, so it is a [@@noalloc] external. */
value adprom_mlkit_jacobi_sweeps(value a, value vt, value vn, value vmax)
{
  GUARD(&a, &vt);
  double *pa = (double *)a, *pvt = (double *)vt;
  size_t n = Long_val(vn);
  long max_sweeps = Long_val(vmax);
  long sweep = 0;
  while (off_diagonal_mass(pa, n) > 1e-18 && sweep < max_sweeps) {
    sweep++;
    for (size_t p = 0; p < n; p++)
      for (size_t q = p + 1; q < n; q++)
        rotate(pa, pvt, n, p, q);
  }
  UNGUARD();
  return Val_unit;
}
