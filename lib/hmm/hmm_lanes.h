/* The lane-generic kernels of hmm_kernels.c: the forward step, the
   backward row sums, the batch scorer's runs and the E-step's blocks.
   hmm_kernels.c includes this file once per width, with LANES defined
   as 2 (SSE2 on x86-64, NEON on arm64) and, on x86-64, again as 4
   under an AVX2 target. Each inclusion defines its functions with the
   suffix _LANES (propagate_2, propagate_4, ...).

   The width changes only how many independent outputs one instruction
   computes: every output adds its terms one at a time, in the order the
   reference does, so both builds give the same bits. The widest tile
   holds eight accumulators; the remainder takes one tile each of half,
   a quarter and an eighth of that as it needs, then, in the 4-lane
   build, the 2-lane build's one-vector tile (the pair tile), then a
   last odd column. */

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

/* Scores the sorted windows [k0, k1). Below [depth], the stack holds the
   normalised forward rows and partial log-likelihoods of the previous
   window's prefix, every step of which had a positive scale; [dead]
   says that the previous window's step [depth] had not. */
static void LANE_FN(score_run)(const struct scorer *s, const struct score_worker *wk,
                               size_t k0, size_t k1)
{
  const size_t n = s->n;
  double *alpha = wk->alpha, *ll = wk->ll;
  size_t depth = 0;
  int dead = 0;
  for (size_t k = k0; k < k1; k++) {
    const size_t *obs = s->sorted[k].obs, len = s->sorted[k].len;
    size_t common = 0;
    if (k > k0) {
      const struct window_key *prev = &s->sorted[k - 1];
      const size_t limit = len < prev->len ? len : prev->len;
      while (common < limit && prev->obs[common] == obs[common]) common++;
    }
    if (dead && common > depth) {
      /* it shares the step that made the previous window impossible */
      s->scores[s->sorted[k].w] = -INFINITY;
      continue;
    }
    if (common < depth) depth = common;
    dead = 0;
    for (; depth < len; depth++) {
      double *row = alpha + (depth * n);
      const double *b = s->bt + (obs[depth] * n);
      double total = 0.0;
      if (depth == 0)
        for (size_t i = 0; i < n; i++) {
          double v = s->pi[i] * b[i];
          row[i] = v;
          total += v;
        }
      else {
        LANE_FN(propagate)(s->a, row - n, row, n);
        for (size_t j = 0; j < n; j++) {
          double v = row[j] * b[j];
          row[j] = v;
          total += v;
        }
      }
      if (!(total > 0.0)) {
        dead = 1;
        break;
      }
      for (size_t j = 0; j < n; j++) row[j] = row[j] / total;
      ll[depth] = (depth > 0 ? ll[depth - 1] : 0.0) + log(total);
    }
    s->scores[s->sorted[k].w] =
      len == 0 ? 0.0 : dead ? -INFINITY : ll[len - 1] / (double)len;
  }
}

static void LANE_FN(score_runs)(void *arg)
{
  const struct score_worker *wk = arg;
  struct scorer *s = wk->s;
  for (;;) {
    const size_t k0 = atomic_fetch_add(&s->next_run, SCORE_RUN);
    if (k0 >= s->windows) break;
    LANE_FN(score_run)(s, wk, k0, k0 + SCORE_RUN < s->windows ? k0 + SCORE_RUN : s->windows);
  }
}

/* Phase A for window [w] of the block starting at window [w0]: the
   arithmetic of the OCaml reference, operation for operation. */
static void LANE_FN(window_pass)(const struct estep *e, const struct worker *wk, size_t w0,
                                 size_t w)
{
  const size_t n = e->n, base = e->off[w], len = e->off[w + 1] - base;
  const size_t *obs = e->obs + base;
  double *alpha = wk->alpha, *scale = wk->scale;
  e->possible[w] = 0;
  if (len == 0) return;
  /* forward: once a prefix is impossible the remaining scales are 0 */
  const double *b0 = e->bt + (obs[0] * n);
  double s0 = 0.0;
  for (size_t i = 0; i < n; i++) {
    double v = e->pi[i] * b0[i];
    alpha[i] = v;
    s0 += v;
  }
  scale[0] = s0;
  if (s0 > 0.0)
    for (size_t i = 0; i < n; i++) alpha[i] = alpha[i] / s0;
  for (size_t st = 1; st < len; st++) {
    if (!(scale[st - 1] > 0.0)) {
      for (; st < len; st++) scale[st] = 0.0;
      break;
    }
    double *cur = alpha + (st * n);
    const double *b = e->bt + (obs[st] * n);
    LANE_FN(propagate)(e->a, cur - n, cur, n);
    double total = 0.0;
    for (size_t j = 0; j < n; j++) {
      double v = cur[j] * b[j];
      cur[j] = v;
      total += v;
    }
    scale[st] = total;
    if (total > 0.0)
      for (size_t j = 0; j < n; j++) cur[j] = cur[j] / total;
  }
  for (size_t st = 0; st < len; st++)
    if (scale[st] <= 0.0) return;
  double ll = 0.0;
  for (size_t st = 0; st < len; st++) ll += log(scale[st]);
  e->ll[w] = ll;
  e->possible[w] = 1;

  /* backward, with γ and the ξ terms of each step as soon as β_t is
     known; no scale is <= 0 here, so the reference's guards skip
     nothing */
  const double weight = e->weight[w];
  const size_t t0 = base - e->off[w0];
  double *wg = e->wg + (t0 * n), *coef = e->coef + (t0 * n);
  unsigned char *gflag = e->gflag + t0;
  double *next = wk->beta, *cur = wk->beta + n, *rsum = wk->rsum;
  const double last_beta = 1.0 / scale[len - 1];
  for (size_t i = 0; i < n; i++) cur[i] = last_beta;
  for (size_t st = len; st-- > 0;) {
    const double *al = alpha + (st * n);
    if (st + 1 < len) {
      double *x = e->bb + ((t0 + st) * n);
      const double *b = e->bt + (obs[st + 1] * n);
      for (size_t j = 0; j < n; j++) x[j] = b[j] * next[j];
      LANE_FN(row_sums)(e->at, x, rsum, n);
      const double inv = 1.0 / scale[st];
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
    double *t = next;
    next = cur;
    cur = t;
  }
}

/* Phase B's ξ update of a_acc[i][j0 .. j0+LANES·nv): for each window of
   [w0, w1) and each of its steps whose coefficient is positive, in that
   order, row[j] += (coef · a_i[j]) · bb[j]; lanes across j. */
static inline __attribute__((always_inline)) void
LANE_FN(xi_tile)(const int nv, const struct estep *e, size_t w0, size_t w1, size_t i,
                 double *row, size_t j0)
{
  const size_t n = e->n;
  const double *ai = e->a + (i * n) + j0;
  VEC acc[8];
  for (int k = 0; k < nv; k++) acc[k] = LANE_FN(load)(row + j0 + (LANES * k));
  for (size_t w = w0; w < w1; w++) {
    if (!e->possible[w]) continue;
    const size_t len = e->off[w + 1] - e->off[w], t0 = e->off[w] - e->off[w0];
    const double *coef = e->coef + (t0 * n) + (i * len);
    const double *bb = e->bb + (t0 * n) + j0;
    for (size_t st = 0; st + 1 < len; st++) {
      double c = coef[st];
      if (!(c > 0.0)) continue;
      const double *x = bb + (st * n);
      VEC cv = LANE_FN(splat)(c);
      for (int k = 0; k < nv; k++)
        acc[k] += (cv * LANE_FN(load)(ai + (LANES * k))) * LANE_FN(load)(x + (LANES * k));
    }
  }
  for (int k = 0; k < nv; k++) LANE_FN(store)(row + j0 + (LANES * k), acc[k]);
}

static void LANE_FN(xi_col)(const struct estep *e, size_t w0, size_t w1, size_t i,
                            double *row, size_t j)
{
  const size_t n = e->n;
  const double aij = e->a[(i * n) + j];
  double acc = row[j];
  for (size_t w = w0; w < w1; w++) {
    if (!e->possible[w]) continue;
    const size_t len = e->off[w + 1] - e->off[w], t0 = e->off[w] - e->off[w0];
    const double *coef = e->coef + (t0 * n) + (i * len);
    const double *bb = e->bb + (t0 * n) + j;
    for (size_t st = 0; st + 1 < len; st++) {
      double c = coef[st];
      if (!(c > 0.0)) continue;
      acc += (c * aij) * bb[st * n];
    }
  }
  row[j] = acc;
}

/* Phase B for row [i] over the windows [w0, w1). */
static void LANE_FN(row_pass)(const struct estep *e, size_t w0, size_t w1, size_t i)
{
  const size_t n = e->n, m = e->m;
  double *brow = e->b_acc + (i * m);
  for (size_t w = w0; w < w1; w++) {
    if (!e->possible[w]) continue;
    const size_t base = e->off[w], len = e->off[w + 1] - base, t0 = base - e->off[w0];
    const double *wg = e->wg + (t0 * n) + (i * len);
    const unsigned char *gflag = e->gflag + t0;
    for (size_t st = 0; st < len; st++)
      if (gflag[st]) brow[e->obs[base + st]] += wg[st];
    if (gflag[0]) e->pi_acc[i] += wg[0];
  }
  double *row = e->a_acc + (i * n);
  size_t j0 = 0;
  for (; j0 + (8 * LANES) <= n; j0 += 8 * LANES) LANE_FN(xi_tile)(8, e, w0, w1, i, row, j0);
  if (j0 + (4 * LANES) <= n) {
    LANE_FN(xi_tile)(4, e, w0, w1, i, row, j0);
    j0 += 4 * LANES;
  }
  if (j0 + (2 * LANES) <= n) {
    LANE_FN(xi_tile)(2, e, w0, w1, i, row, j0);
    j0 += 2 * LANES;
  }
  if (j0 + LANES <= n) {
    LANE_FN(xi_tile)(1, e, w0, w1, i, row, j0);
    j0 += LANES;
  }
#if LANES > 2
  if (j0 + 2 <= n) {
    xi_tile_2(1, e, w0, w1, i, row, j0);
    j0 += 2;
  }
#endif
  if (j0 < n) LANE_FN(xi_col)(e, w0, w1, i, row, j0);
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
      if (r0 >= e->n) break;
      size_t r1 = r0 + ROW_CHUNK < e->n ? r0 + ROW_CHUNK : e->n;
      for (size_t i = r0; i < r1; i++) LANE_FN(row_pass)(e, w0, w1, i);
    }
    barrier_wait(&e->bar);
  }
}

#undef VEC
#undef LANE_FN
#undef LANE_PASTE
#undef LANE_PASTE_
#undef LANES
