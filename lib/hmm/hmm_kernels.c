/* The HMM library's C side: the forward step of compiled scoring, the
   per-symbol scores of a batch of windows (each shared prefix computed
   once), and the whole E-step of one Baum-Welch iteration (forward and
   backward passes, γ, ξ and their accumulation); the two batch entry
   points run on every allowed CPU.

   Each O(n^2)-per-step kernel computes a set of independent outputs,
   and SIMD lanes run only across those outputs, never along one
   output's sum: every output element adds its terms one at a time, in
   the same order as the row-at-a-time OCaml reference, so every result
   is bit for bit the reference's. This holds only while the compiler
   neither fuses a multiply into an add nor reassociates: the file is
   built with -ffp-contract=off and without -ffast-math, and no build
   below enables FMA. Skipping a term whose weight is zero is exact
   only for finite table entries, which [Hmm.validate] guarantees.

   The kernels are written once, lane-generic, in hmm_lanes.h, and
   built twice from it: two lanes wide (SSE2 on x86-64, NEON on arm64)
   for every host, and on x86-64 four lanes wide under an AVX2 target
   pragma. A constructor picks one build when the library loads, by
   CPUID; since no output's sum depends on the width, the bits do not
   depend on the pick.

   Tables are flat row-major blocks of doubles: an OCaml [float array]
   is one, and so is the data of a [Mlkit.Matrix.t]. */

#define _GNU_SOURCE
#include <caml/fail.h>
#include <caml/mlvalues.h>
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

#include "float_guard.h"

static inline mlsize_t float_length(value v)
{
  return Wosize_val(v) / Double_wosize;
}

/* ---- Threads ----------------------------------------------------------

   Both batch entry points run on every CPU the caller may use. Their
   helper threads are plain POSIX threads, created and joined inside
   the call, with every signal blocked: signals keep going to threads
   the runtime knows, no OCaml domain starts, and the process can still
   fork once the call has returned. The helpers read and write raw
   memory only and never call the OCaml runtime. The calling domain
   keeps the runtime lock throughout, so no GC runs in it and no OCaml
   value moves while the helpers read the tables. */

/* A barrier whose party count is fixed while its mutex is held, so the
   caller can settle it after the helpers have started. */
struct barrier {
  pthread_mutex_t mu;
  pthread_cond_t cv;
  int parties, waiting;
  unsigned long generation;
};

static void barrier_wait(struct barrier *b)
{
  pthread_mutex_lock(&b->mu);
  if (b->parties > 1) {
    unsigned long generation = b->generation;
    if (++b->waiting == b->parties) {
      b->waiting = 0;
      b->generation++;
      pthread_cond_broadcast(&b->cv);
    }
    else
      while (generation == b->generation) pthread_cond_wait(&b->cv, &b->mu);
  }
  pthread_mutex_unlock(&b->mu);
}

/* The CPUs the calling thread may run on. */
static size_t allowed_cpus(void)
{
#ifdef CPU_COUNT
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    int count = CPU_COUNT(&set);
    return count > 0 ? (size_t)count : 1;
  }
#endif
  long online = sysconf(_SC_NPROCESSORS_ONLN);
  return online > 0 ? (size_t)online : 1;
}

/* Copies [len] OCaml ints to [dst]. */
static void copy_ints(value v, size_t *dst, size_t len)
{
  for (size_t k = 0; k < len; k++) dst[k] = Long_val(Field(v, k));
}

/* dst[c·rows + r] <- src[r·cols + c] */
static void transpose(const double *src, size_t rows, size_t cols, double *dst)
{
  for (size_t r = 0; r < rows; r++)
    for (size_t c = 0; c < cols; c++) dst[(c * rows) + r] = src[(r * cols) + c];
}

struct helper {
  pthread_t thread;
  void (*run)(void *);
  void *arg;
};

static void *helper_main(void *arg)
{
  struct helper *h = arg;
  h->run(h->arg);
  return NULL;
}

/* Runs run(args + t·size) for every t below [threads]: t = 0 on the
   calling thread, the others on helpers, all joined before the return.
   A helper that cannot be created leaves its share to the others, so
   [run] must claim its work as it goes. When [bar] is not NULL, its
   party count is settled under its mutex, before any thread can wait
   on it. */
static void run_threads(size_t threads, void (*run)(void *), void *args, size_t size,
                        struct barrier *bar)
{
  struct helper *h = threads > 1 ? malloc((threads - 1) * sizeof *h) : NULL;
  size_t started = 1;
  if (bar) pthread_mutex_lock(&bar->mu);
  if (h) {
    sigset_t all, old;
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    for (; started < threads; started++) {
      h[started - 1].run = run;
      h[started - 1].arg = (char *)args + (started * size);
      if (pthread_create(&h[started - 1].thread, NULL, helper_main, &h[started - 1]) != 0)
        break;
    }
    pthread_sigmask(SIG_SETMASK, &old, NULL);
  }
  if (bar) {
    bar->parties = (int)started;
    pthread_mutex_unlock(&bar->mu);
  }
  run(args);
  for (size_t t = 1; t < started; t++) pthread_join(h[t - 1].thread, NULL);
  free(h);
}

/* ---- Window scores ----------------------------------------------------

   One call scores a batch of windows as [Hmm.Compiled.per_symbol_score]
   scores each one: the same scaled forward pass, with the same
   [propagate], then each step's emission products, sum and
   normalisation in the same order; the log-likelihood starts as
   0.0 + log s_0 and takes the later log s_t one step at a time; a
   scale that is not positive makes the window -inf; and the sum is
   divided by the length last.

   Training windows share many prefixes: banking's training windows
   hold 5,785 steps but 3,275 distinct prefixes. The call sorts the
   windows lexicographically and walks them in that order with a stack
   of forward rows and partial log-likelihoods indexed by depth, so each
   window starts from the rows of its longest common prefix with the
   window before it. The row at depth d depends on the first d + 1
   observations alone, so a reused row has the bits a fresh pass would
   give it. Threads claim fixed runs of SCORE_RUN windows of the sorted
   order, and each run starts from an empty stack: the bits depend on
   neither the thread count nor the run size. */

#define SCORE_RUN 32

struct window_key {
  const size_t *obs;
  size_t len, w;
};

static int compare_windows(const void *x, const void *y)
{
  const struct window_key *p = x, *q = y;
  const size_t len = p->len < q->len ? p->len : q->len;
  for (size_t k = 0; k < len; k++)
    if (p->obs[k] != q->obs[k]) return p->obs[k] < q->obs[k] ? -1 : 1;
  return (p->len > q->len) - (p->len < q->len);
}

struct scorer {
  size_t n, windows;
  const double *a, *bt, *pi; /* bt: emissions by symbol */
  const struct window_key *sorted;
  atomic_size_t next_run;
  double *scores; /* by window */
};

struct score_worker {
  struct scorer *s;
  double *alpha, *ll; /* maxlen·n, maxlen */
};

/* ---- The E-step -------------------------------------------------------

   One call runs the E-step of [Hmm.baum_welch_step] over all windows.
   The windows go in blocks whose scratch stays under [BLOCK_BYTES]
   unless one window alone needs more; each block runs two phases, with
   a barrier after each:

   - phase A, split by window: the forward pass, the backward pass, γ
     and the ξ normaliser of each window, stored per window as
     weight·γ (with a flag for the steps whose γ sum is positive), the
     ξ coefficients weight·α_t(i)/s_t, the ξ factors bb_t(j) =
     b_j(o_{t+1})·β_{t+1}(j) and the log-likelihood;
   - phase B, split by state row: the thread that claims row i walks
     the block's windows in order and adds their terms to a_acc[i],
     b_acc[i] and pi_acc[i].

   Every accumulator element therefore takes its terms in window order,
   then step order, whichever thread runs a window or a row and wherever
   the blocks are cut; the weighted log-likelihood is summed in window
   order after the join. The bits depend on neither the thread count
   nor the block size. */

#define BLOCK_BYTES (1u << 20)
#define ROW_CHUNK 4

struct estep {
  size_t n, m;
  const double *a;   /* n×n transitions */
  double *at;        /* A's columns: at[j·n + i] = a[i·n + j] */
  double *bt;        /* emissions by symbol: bt[o·n + i] = b_i(o) */
  const double *pi;
  size_t *off;       /* window w is obs[off[w] .. off[w+1]) */
  size_t *obs;
  const double *weight;
  double *a_acc, *b_acc, *pi_acc;
  double *ll;              /* per window */
  unsigned char *possible; /* per window */
  size_t blocks;
  size_t *block;           /* block k is windows [block[k], block[k+1]) */
  atomic_size_t *next_window, *next_row; /* per block */
  /* Block scratch, indexed by the block-relative step t = off[w] -
     off[block start] + s. Window w's part of [wg] and [coef] is an
     n×len table at t·n (row i, step s at t·n + i·len + s), its part of
     [bb] the rows t·n .. (t+len)·n. */
  double *wg, *coef, *bb;
  unsigned char *gflag;
  struct barrier bar;
};

struct worker {
  struct estep *e;
  double *alpha, *beta, *rsum, *scale; /* maxlen·n, 2n, n, maxlen */
};

/* ---- The two builds --------------------------------------------------- */

#define LANES 2
#include "hmm_lanes.h"

#if defined(__x86_64__)
#pragma GCC push_options
#pragma GCC target("avx2")
#define LANES 4
#include "hmm_lanes.h"
#pragma GCC pop_options
#endif

/* The build every entry point runs: the 2-lane one unless the
   constructor below finds AVX2. __builtin_cpu_supports("avx2") also
   checks that the OS saves the YMM registers. The constructor runs at
   library load, before any OCaml code and so before any helper thread,
   so the table is never written while it is read. */
static struct {
  void (*propagate)(const double *a, const double *src, double *dst, size_t n);
  void (*score_runs)(void *);
  void (*run_blocks)(void *);
} kernels = { propagate_2, score_runs_2, run_blocks_2 };

#if defined(__x86_64__)
__attribute__((constructor)) static void select_kernels(void)
{
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) {
    kernels.propagate = propagate_4;
    kernels.score_runs = score_runs_4;
    kernels.run_blocks = run_blocks_4;
  }
}
#endif

/* ---- Entry points ----------------------------------------------------- */

/* [Hmm.Compiled]'s forward step over the model's flat transition
   table. It does not allocate, raise or release the runtime lock, so
   it is a [@@noalloc] external. */
value adprom_hmm_propagate(value a, value src, value dst)
{
  GUARD(&a, &src, &dst);
  kernels.propagate((const double *)a, (const double *)src, (double *)dst, float_length(dst));
  UNGUARD();
  return Val_unit;
}

/* [adprom_hmm_window_scores a b pi obs off scores] stores in scores[w]
   the per-symbol score of the window obs[off[w] .. off[w+1]).
   [Hmm.per_symbol_scores] checks the dimensions and the range of every
   observation before the call. */
value adprom_hmm_window_scores(value va, value vb, value vpi, value vobs, value voff,
                               value vscores)
{
  GUARD(&va, &vb, &vpi, &vscores);
  struct scorer s;
  const size_t n = float_length(vpi), m = n ? float_length(vb) / n : 0;
  const size_t windows = float_length(vscores), total = Wosize_val(vobs);
  size_t *obs = malloc((total + 1) * sizeof *obs);
  size_t *off = malloc((windows + 1) * sizeof *off);
  struct window_key *sorted = malloc((windows + 1) * sizeof *sorted);
  double *bt = malloc((m * n + 1) * sizeof *bt);
  struct score_worker *wk = NULL;
  double *per_thread = NULL;
  size_t threads = allowed_cpus(), maxlen = 0;
  const size_t runs = (windows + SCORE_RUN - 1) / SCORE_RUN;
  if (threads > runs) threads = runs;
  if (threads < 1) threads = 1;
  int ok = obs && off && sorted && bt;
  if (ok) {
    copy_ints(vobs, obs, total);
    copy_ints(voff, off, windows + 1);
    for (size_t w = 0; w < windows; w++) {
      const size_t len = off[w + 1] - off[w];
      sorted[w] = (struct window_key){ obs + off[w], len, w };
      if (len > maxlen) maxlen = len;
    }
    qsort(sorted, windows, sizeof *sorted, compare_windows);
    wk = malloc(threads * sizeof *wk);
    per_thread = malloc(((threads * maxlen * (n + 1)) + 1) * sizeof *per_thread);
    ok = wk && per_thread;
  }
  if (ok) {
    transpose((const double *)vb, n, m, bt);
    s.n = n;
    s.windows = windows;
    s.a = (const double *)va;
    s.bt = bt;
    s.pi = (const double *)vpi;
    s.sorted = sorted;
    s.scores = (double *)vscores;
    atomic_init(&s.next_run, 0);
    for (size_t t = 0; t < threads; t++) {
      wk[t].s = &s;
      wk[t].alpha = per_thread + (t * maxlen * (n + 1));
      wk[t].ll = wk[t].alpha + (maxlen * n);
    }
    run_threads(threads, kernels.score_runs, wk, sizeof *wk, NULL);
  }
  free(per_thread);
  free(wk);
  free(bt);
  free(sorted);
  free(off);
  free(obs);
  UNGUARD();
  if (!ok) caml_raise_out_of_memory();
  return Val_unit;
}

value adprom_hmm_window_scores_byte(value *argv, int argn)
{
  (void)argn;
  return adprom_hmm_window_scores(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5]);
}

/* [adprom_hmm_e_step a b pi obs off weights a_acc b_acc pi_acc ll]
   adds the E-step of the windows obs[off[w] .. off[w+1]) with weights
   [weights] into the zeroed accumulators and stores the weighted
   log-likelihood in ll[0]. [Hmm.baum_welch_step] checks the dimensions
   and the range of every observation before the call. */
value adprom_hmm_e_step(value va, value vb, value vpi, value vobs, value voff, value vweights,
                        value va_acc, value vb_acc, value vpi_acc, value vll)
{
  GUARD(&va, &vb, &vpi, &vweights, &va_acc, &vb_acc, &vpi_acc, &vll);
  struct estep e;
  const size_t n = float_length(vpi), m = n ? float_length(vb) / n : 0;
  const size_t windows = float_length(vweights), total = Wosize_val(vobs);
  memset(&e, 0, sizeof e);
  e.n = n;
  e.m = m;
  e.a = (const double *)va;
  e.pi = (const double *)vpi;
  e.weight = (const double *)vweights;
  e.a_acc = (double *)va_acc;
  e.b_acc = (double *)vb_acc;
  e.pi_acc = (double *)vpi_acc;
  size_t threads = allowed_cpus();
  if (threads > windows) threads = windows;
  if (threads < 1) threads = 1;
  struct worker *wk = NULL;
  double *per_thread = NULL;
  int ok = 0;

  e.off = malloc((windows + 1) * sizeof *e.off);
  e.block = malloc((windows + 1) * sizeof *e.block);
  e.next_window = malloc((windows + 1) * sizeof *e.next_window);
  e.next_row = malloc((windows + 1) * sizeof *e.next_row);
  e.ll = malloc((windows + 1) * sizeof *e.ll);
  e.possible = malloc(windows + 1);
  if (!(e.off && e.block && e.next_window && e.next_row && e.ll && e.possible)) goto out;
  /* blocks: whole windows while their scratch fits BLOCK_BYTES; a
     longer window gets a block of its own */
  const size_t cap = BLOCK_BYTES / ((3 * n * sizeof(double)) + 1);
  size_t maxlen = 0, steps = 0, max_steps = 0;
  copy_ints(voff, e.off, windows + 1);
  for (size_t w = 0; w < windows; w++) {
    const size_t len = e.off[w + 1] - e.off[w];
    if (len > maxlen) maxlen = len;
    if (w == 0 || steps + len > cap) {
      atomic_init(&e.next_window[e.blocks], 0);
      atomic_init(&e.next_row[e.blocks], 0);
      e.block[e.blocks++] = w;
      steps = 0;
    }
    steps += len;
    if (steps > max_steps) max_steps = steps;
  }
  e.block[e.blocks] = windows;

  e.obs = malloc((total + 1) * sizeof *e.obs);
  e.at = malloc((n * n + 1) * sizeof *e.at);
  e.bt = malloc((m * n + 1) * sizeof *e.bt);
  e.wg = malloc((max_steps * n + 1) * sizeof *e.wg);
  e.coef = malloc((max_steps * n + 1) * sizeof *e.coef);
  e.bb = malloc((max_steps * n + 1) * sizeof *e.bb);
  e.gflag = malloc(max_steps + 1);
  wk = calloc(threads, sizeof *wk);
  per_thread = malloc((threads * ((2 * maxlen) + (maxlen * n) + (3 * n)) + 1)
                      * sizeof *per_thread);
  if (!(e.obs && e.at && e.bt && e.wg && e.coef && e.bb && e.gflag && wk && per_thread))
    goto out;
  ok = 1;
  copy_ints(vobs, e.obs, total);
  transpose(e.a, n, n, e.at);
  transpose((const double *)vb, n, m, e.bt);
  double *p = per_thread;
  for (size_t t = 0; t < threads; t++) {
    wk[t].e = &e;
    wk[t].alpha = p;
    p += maxlen * n;
    wk[t].scale = p;
    p += maxlen;
    wk[t].beta = p;
    p += 2 * n;
    wk[t].rsum = p;
    p += n;
  }
  pthread_mutex_init(&e.bar.mu, NULL);
  pthread_cond_init(&e.bar.cv, NULL);
  run_threads(threads, kernels.run_blocks, wk, sizeof *wk, &e.bar);
  pthread_cond_destroy(&e.bar.cv);
  pthread_mutex_destroy(&e.bar.mu);

  double total_ll = 0.0;
  for (size_t w = 0; w < windows; w++)
    if (e.possible[w]) total_ll += e.weight[w] * e.ll[w];
  Store_double_flat_field(vll, 0, total_ll);

out:
  free(per_thread);
  free(wk);
  free(e.gflag);
  free(e.bb);
  free(e.coef);
  free(e.wg);
  free(e.bt);
  free(e.at);
  free(e.obs);
  free(e.possible);
  free(e.ll);
  free(e.next_row);
  free(e.next_window);
  free(e.block);
  free(e.off);
  UNGUARD();
  if (!ok) caml_raise_out_of_memory();
  return Val_unit;
}

value adprom_hmm_e_step_byte(value *argv, int argn)
{
  (void)argn;
  return adprom_hmm_e_step(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6],
                           argv[7], argv[8], argv[9]);
}
