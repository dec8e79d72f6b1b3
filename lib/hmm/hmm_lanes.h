/* The lane-generic kernels of hmm_kernels.c: the forward step, the
   backward row sums, the prefix table's tasks and the E-step's blocks.
   hmm_kernels.c includes this file once per width, with LANES defined
   as 2 (SSE2 on x86-64, NEON on arm64) and, on x86-64, again as 4
   under an AVX2 target. Each inclusion defines its functions with the
   suffix _LANES (propagate_2, propagate_4, ...).

   The width changes only how many independent outputs one instruction
   computes: every output adds its terms one at a time, in the order the
   reference does, so both builds give the same bits. The widest tile
   holds eight accumulators (four for each of the two state rows phase
   B's ξ update takes at once); the remainder takes one tile each of
   half, a quarter and an eighth of that as it needs, then, in the
   4-lane build, the 2-lane build's one-vector tile (the pair tile),
   then a last odd column. */

#define LANE_PASTE_(a, b) a##b
#define LANE_PASTE(a, b) LANE_PASTE_(a, b)
#define LANE_FN(name) LANE_PASTE(name, LANE_PASTE(_, LANES))
#define VEC LANE_FN(vec)

typedef double VEC __attribute__((vector_size(8 * LANES)));

/* OCaml float arrays are 8-byte aligned only. */
static inline VEC LANE_FN(load)(const double *p)
{
  VEC v;
  memcpy(&v, p, sizeof v);
  return v;
}

static inline void LANE_FN(store)(double *p, VEC v)
{
  memcpy(p, &v, sizeof v);
}

static inline VEC LANE_FN(splat)(double x)
{
  VEC v;
  for (int k = 0; k < LANES; k++) v[k] = x;
  return v;
}

/* dst[j0 .. j0+LANES·nv) <- Σ_i w[i] · m[i][j0 ..], terms in increasing
   i, each output's sum starting from 0.0; row i of [m] starts at
   m + i·n. With [skip], rows whose weight is not positive (or NaN) add
   no term; their term would be ±0.0, which leaves a sum that starts at
   +0.0 unchanged. [nv] is a compile-time constant at every call, so
   [acc] lives in registers. */
static inline __attribute__((always_inline)) void
LANE_FN(weighted_rows_tile)(const int nv, const int skip, size_t rows, const double *m,
                            size_t n, const double *w, double *dst, size_t j0)
{
  VEC acc[8];
  for (int k = 0; k < nv; k++) acc[k] = LANE_FN(splat)(0.0);
  for (size_t i = 0; i < rows; i++) {
    double p = w[i];
    if (skip && !(p > 0.0)) continue;
    const double *mi = m + (i * n) + j0;
    VEC pv = LANE_FN(splat)(p);
    for (int k = 0; k < nv; k++) acc[k] += pv * LANE_FN(load)(mi + (LANES * k));
  }
  for (int k = 0; k < nv; k++) LANE_FN(store)(dst + j0 + (LANES * k), acc[k]);
}

/* The same over all [n] outputs. */
static inline __attribute__((always_inline)) void
LANE_FN(weighted_rows)(const int skip, size_t rows, const double *m, const double *w,
                       double *dst, size_t n)
{
  size_t j0 = 0;
  for (; j0 + (8 * LANES) <= n; j0 += 8 * LANES)
    LANE_FN(weighted_rows_tile)(8, skip, rows, m, n, w, dst, j0);
  if (j0 + (4 * LANES) <= n) {
    LANE_FN(weighted_rows_tile)(4, skip, rows, m, n, w, dst, j0);
    j0 += 4 * LANES;
  }
  if (j0 + (2 * LANES) <= n) {
    LANE_FN(weighted_rows_tile)(2, skip, rows, m, n, w, dst, j0);
    j0 += 2 * LANES;
  }
  if (j0 + LANES <= n) {
    LANE_FN(weighted_rows_tile)(1, skip, rows, m, n, w, dst, j0);
    j0 += LANES;
  }
#if LANES > 2
  if (j0 + 2 <= n) {
    weighted_rows_tile_2(1, skip, rows, m, n, w, dst, j0);
    j0 += 2;
  }
#endif
  if (j0 < n) {
    double acc = 0.0;
    for (size_t i = 0; i < rows; i++) {
      double p = w[i];
      if (skip && !(p > 0.0)) continue;
      acc += p * m[(i * n) + j0];
    }
    dst[j0] = acc;
  }
}

/* Forward step: dst[j] <- Σ_i src[i] · a[i][j] over the rows i with
   src[i] > 0, in increasing i; lanes across j. */
static void LANE_FN(propagate)(const double *a, const double *src, double *dst, size_t n)
{
  LANE_FN(weighted_rows)(1, n, a, src, dst, n);
}

/* Backward row sums: sums[i] <- Σ_j a[i][j] · x[j], in increasing j,
   read from the transposed table [at] (at[j][i] = a[i][j]) so that the
   lanes run across rows i. No term is skipped, as in the reference. */
static void LANE_FN(row_sums)(const double *at, const double *x, double *sums, size_t n)
{
  LANE_FN(weighted_rows)(0, n, at, x, sums, n);
}

/* Builds the table's rows of the nodes [v0, v1), every parent of
   which is either among them, below, or a depth-0 node. */
static void LANE_FN(build_task)(struct table *t, size_t v0, size_t v1)
{
  const size_t n = t->n;
  for (size_t v = v0; v < v1; v++) {
    const size_t p = t->parent[v];
    t->dead[v] = t->dead[p];
    if (t->dead[v]) continue;
    double *row = t->rows + (v * n);
    const double *b = t->bt + (t->sym[v] * n);
    LANE_FN(propagate)(t->a, t->rows + (p * n), row, n);
    double s = 0.0;
    for (size_t j = 0; j < n; j++) {
      double x = row[j] * b[j];
      row[j] = x;
      s += x;
    }
    t->dead[v] = !(s > 0.0);
    if (t->dead[v]) continue;
    for (size_t j = 0; j < n; j++) row[j] = row[j] / s;
    t->scale[v] = s;
    t->ll[v] = t->ll[p] + log(s);
  }
}

static void LANE_FN(build_tasks)(void *arg)
{
  struct table *t = *(struct table **)arg;
  for (;;) {
    const size_t k = atomic_fetch_add(&t->next_task, 1);
    if (k >= t->tasks) break;
    LANE_FN(build_task)(t, t->task[2 * k], t->task[(2 * k) + 1]);
  }
}

/* Phase A for window [w] of the block starting at window [w0]: the
   arithmetic of the OCaml reference's backward pass, γ and ξ,
   operation for operation, over the table's forward rows. */
static void LANE_FN(window_pass)(const struct estep *e, const struct worker *wk, size_t w0,
                                 size_t w)
{
  if (!e->possible[w]) return;
  const struct table *t = e->t;
  const size_t n = t->n, base = t->off[w], len = t->off[w + 1] - base;
  const size_t *obs = t->obs + base, *node = t->node + base;

  /* backward, with γ and the ξ terms of each step as soon as β_t is
     known; no scale is <= 0 here, so the reference's guards skip
     nothing */
  const double weight = e->weight[w];
  const size_t t0 = base - t->off[w0];
  double *wg = e->wg + (t0 * n), *coef = e->coef + (t0 * n);
  unsigned char *gflag = e->gflag + t0;
  double *next = wk->beta, *cur = wk->beta + n, *rsum = wk->rsum;
  const double last_beta = 1.0 / t->scale[node[len - 1]];
  for (size_t i = 0; i < n; i++) cur[i] = last_beta;
  for (size_t st = len; st-- > 0;) {
    const double *al = t->rows + (node[st] * n);
    /* the table's rows lie apart: fetch the next step's early */
    if (st > 0)
      for (size_t i = 0; i < n; i += 8) __builtin_prefetch(t->rows + (node[st - 1] * n) + i);
    if (st + 1 < len) {
      double *x = e->bb + ((t0 + st) * n);
      const double *b = t->bt + (obs[st + 1] * n);
      for (size_t j = 0; j < n; j++) x[j] = b[j] * next[j];
      LANE_FN(row_sums)(t->at, x, rsum, n);
      const double inv = 1.0 / t->scale[node[st]];
      for (size_t i = 0; i < n; i++) cur[i] = rsum[i] * inv;
      /* ξ normaliser from the row sums before the scale */
      double s = 0.0;
      for (size_t i = 0; i < n; i++) {
        double ai = al[i];
        if (ai > 0.0) s += ai * rsum[i];
      }
      for (size_t i = 0; i < n; i++)
        coef[(i * len) + st] = s > 0.0 ? weight * al[i] / s : 0.0;
    }
    /* γ, normalised explicitly; rsum holds the unnormalised terms */
    double s = 0.0;
    for (size_t i = 0; i < n; i++) {
      double u = al[i] * cur[i];
      rsum[i] = u;
      s += u;
    }
    gflag[st] = s > 0.0;
    if (s > 0.0)
      for (size_t i = 0; i < n; i++) wg[(i * len) + st] = weight * (rsum[i] / s);
    double *tmp = next;
    next = cur;
    cur = tmp;
  }
}

/* Phase B's ξ update of rows i .. i+nr-1 of a_acc, columns [j0,
   j0+LANES·nv): for each window of [w0, w1) and each of its steps, in
   that order, every row r whose coefficient is positive takes
   a_acc[r][j] += (coef · a_r[j]) · bb[j]; lanes across j. The rows of
   a pair share each load of bb, which phase B otherwise reads once per
   row; each element still takes its own terms in its own order. */
static inline __attribute__((always_inline)) void
LANE_FN(xi_tile)(const int nr, const int nv, const struct estep *e, size_t w0, size_t w1,
                 size_t i, size_t j0)
{
  const struct table *t = e->t;
  const size_t n = t->n;
  const double *ai[2];
  double *row[2];
  VEC acc[2][8];
  for (int r = 0; r < nr; r++) {
    ai[r] = t->a + ((i + r) * n) + j0;
    row[r] = e->a_acc + ((i + r) * n) + j0;
    for (int k = 0; k < nv; k++) acc[r][k] = LANE_FN(load)(row[r] + (LANES * k));
  }
  for (size_t w = w0; w < w1; w++) {
    if (!e->possible[w]) continue;
    const size_t len = t->off[w + 1] - t->off[w], t0 = t->off[w] - t->off[w0];
    const double *coef = e->coef + (t0 * n) + (i * len);
    const double *bb = e->bb + (t0 * n) + j0;
    for (size_t st = 0; st + 1 < len; st++) {
      double c[2];
      int any = 0;
      for (int r = 0; r < nr; r++) {
        c[r] = coef[(r * len) + st];
        any |= c[r] > 0.0;
      }
      if (!any) continue;
      const double *x = bb + (st * n);
      VEC xv[8];
      for (int k = 0; k < nv; k++) xv[k] = LANE_FN(load)(x + (LANES * k));
      for (int r = 0; r < nr; r++) {
        if (!(c[r] > 0.0)) continue;
        VEC cv = LANE_FN(splat)(c[r]);
        for (int k = 0; k < nv; k++)
          acc[r][k] += (cv * LANE_FN(load)(ai[r] + (LANES * k))) * xv[k];
      }
    }
  }
  for (int r = 0; r < nr; r++)
    for (int k = 0; k < nv; k++) LANE_FN(store)(row[r] + (LANES * k), acc[r][k]);
}

static void LANE_FN(xi_col)(const struct estep *e, size_t w0, size_t w1, size_t i, size_t j)
{
  const struct table *t = e->t;
  const size_t n = t->n;
  const double aij = t->a[(i * n) + j];
  double acc = e->a_acc[(i * n) + j];
  for (size_t w = w0; w < w1; w++) {
    if (!e->possible[w]) continue;
    const size_t len = t->off[w + 1] - t->off[w], t0 = t->off[w] - t->off[w0];
    const double *coef = e->coef + (t0 * n) + (i * len);
    const double *bb = e->bb + (t0 * n) + j;
    for (size_t st = 0; st + 1 < len; st++) {
      double c = coef[st];
      if (!(c > 0.0)) continue;
      acc += (c * aij) * bb[st * n];
    }
  }
  e->a_acc[(i * n) + j] = acc;
}

/* Phase B for the [nr] rows from [i] over the windows [w0, w1): their
   γ terms, then their ξ terms, one tile of columns at a time. A single
   row takes eight-vector tiles, a pair four-vector ones, so that the
   accumulators stay in registers. */
static inline __attribute__((always_inline)) void
LANE_FN(rows_pass)(const int nr, const struct estep *e, size_t w0, size_t w1, size_t i)
{
  const struct table *t = e->t;
  const size_t n = t->n, m = t->m;
  for (size_t r = i; r < i + nr; r++) {
    double *brow = e->b_acc + (r * m);
    for (size_t w = w0; w < w1; w++) {
      if (!e->possible[w]) continue;
      const size_t base = t->off[w], len = t->off[w + 1] - base, t0 = base - t->off[w0];
      const double *wg = e->wg + (t0 * n) + (r * len);
      const unsigned char *gflag = e->gflag + t0;
      for (size_t st = 0; st < len; st++)
        if (gflag[st]) brow[t->obs[base + st]] += wg[st];
      if (gflag[0]) e->pi_acc[r] += wg[0];
    }
  }
  size_t j0 = 0;
  if (nr == 1)
    for (; j0 + (8 * LANES) <= n; j0 += 8 * LANES) LANE_FN(xi_tile)(1, 8, e, w0, w1, i, j0);
  for (; j0 + (4 * LANES) <= n; j0 += 4 * LANES) LANE_FN(xi_tile)(nr, 4, e, w0, w1, i, j0);
  if (j0 + (2 * LANES) <= n) {
    LANE_FN(xi_tile)(nr, 2, e, w0, w1, i, j0);
    j0 += 2 * LANES;
  }
  if (j0 + LANES <= n) {
    LANE_FN(xi_tile)(nr, 1, e, w0, w1, i, j0);
    j0 += LANES;
  }
#if LANES > 2
  if (j0 + 2 <= n) {
    xi_tile_2(nr, 1, e, w0, w1, i, j0);
    j0 += 2;
  }
#endif
  if (j0 < n)
    for (size_t r = i; r < i + nr; r++) LANE_FN(xi_col)(e, w0, w1, r, j0);
}

static void LANE_FN(run_blocks)(void *arg)
{
  struct worker *wk = arg;
  struct estep *e = wk->e;
  for (size_t k = 0; k < e->blocks; k++) {
    const size_t w0 = e->block[k], w1 = e->block[k + 1];
    for (;;) {
      size_t w = w0 + atomic_fetch_add(&e->next_window[k], 1);
      if (w >= w1) break;
      LANE_FN(window_pass)(e, wk, w0, w);
    }
    barrier_wait(&e->bar);
    for (;;) {
      size_t r0 = atomic_fetch_add(&e->next_row[k], ROW_CHUNK);
      if (r0 >= e->t->n) break;
      size_t r1 = r0 + ROW_CHUNK < e->t->n ? r0 + ROW_CHUNK : e->t->n;
      size_t i = r0;
      for (; i + 2 <= r1; i += 2) LANE_FN(rows_pass)(2, e, w0, w1, i);
      if (i < r1) LANE_FN(rows_pass)(1, e, w0, w1, i);
    }
    barrier_wait(&e->bar);
  }
}

#undef VEC
#undef LANE_FN
#undef LANE_PASTE
#undef LANE_PASTE_
#undef LANES
