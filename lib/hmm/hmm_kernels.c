/* The HMM library's C side: the forward step of compiled scoring, and
   training's pass over one model: a prefix table holding the scaled
   forward row of every distinct prefix of a set of windows, each
   window's per-symbol score read off it, and on request the E-step of
   one Baum-Welch iteration (backward pass, γ, ξ and their
   accumulation) over the table's rows. The table and the E-step run on
   every allowed CPU.

   Each O(n^2)-per-step kernel computes a set of independent outputs,
   and SIMD lanes run only across those outputs, never along one
   output's sum: every output element adds its terms one at a time, in
   the same order as the row-at-a-time OCaml reference, so every result
   is bit for bit the reference's. This holds only while the compiler
   neither fuses a multiply into an add nor reassociates: the file is
   built with -ffp-contract=off and without -ffast-math, and no build
   below enables FMA. Skipping a term whose weight is zero is exact
   only for finite table entries, which [Hmm.validate] guarantees.

   A forward row depends only on the prefix it ends, so a window's
   forward pass is the table's rows along its prefixes: the table
   computes each distinct prefix's row once, with the operations a
   fresh pass over any window through it would take, and the scores
   and the E-step read them from there. Training's windows share most
   of their prefixes: banking's 386 training and 297 convergence
   windows hold 10,238 steps but 3,278 distinct prefixes.

   The kernels are written once, lane-generic, in hmm_lanes.h, and
   built twice from it: two lanes wide (SSE2 on x86-64, NEON on arm64)
   for every host, and on x86-64 four lanes wide under an AVX2 target
   pragma. A constructor picks one build when the library loads, by
   CPUID; since no output's sum depends on the width, the bits do not
   depend on the pick.

   Tables are flat row-major blocks of doubles: an OCaml [float array]
   is one, and so is the data of a [Mlkit.Matrix.t]. */

#define _GNU_SOURCE
#include <caml/alloc.h>
#include <caml/custom.h>
#include <caml/fail.h>
#include <caml/mlvalues.h>
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>

#include "float_guard.h"

static inline mlsize_t float_length(value v)
{
  return Wosize_val(v) / Double_wosize;
}

/* ---- Threads ----------------------------------------------------------

   The table and the E-step run on every CPU the caller may use. Their
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

/* ---- The prefix table -------------------------------------------------

   A pass lays its windows end to end, obs[off[w] .. off[w+1]), and
   numbers their distinct prefixes, the nodes of the table: node[k] is
   the node of the prefix that ends at step k, sym[v] is node v's last
   symbol and parent[v] the node one step shorter. The windows are
   sorted lexicographically and walked in that order, so a window's
   prefixes are new from its longest common prefix with the window
   before it. The depth-0 nodes are numbered first, the rest in that
   depth-first order, so a parent's number is below its child's; the
   subtrees under the depth-1 nodes are the build's tasks, [start,
   stop) ranges of node numbers, largest first. The numbering depends
   on the windows alone and serves every model of a training.

   A node's row takes the operations of one step of
   [Hmm.Compiled.per_symbol_score]: π·b(o) at depth 0, the parent row's
   [propagate] then the emission products otherwise, summed in state
   order into the scale s, then each element divided by s; its
   log-likelihood is the parent's (0.0 at depth 0) plus log s. A scale
   that is not positive (or NaN) makes the node impossible, and so
   every node under it. The depth-0 rows are computed first, on the
   calling thread; then the threads claim whole tasks, which depend on
   nothing but depth-0 rows. Each row is written once, by one thread,
   from rows already final, so the table's bits depend on neither the
   thread count nor the claim order.

   The table is one anonymous mapping, sized for as many nodes as
   steps; only the pages its nodes use are ever touched. Each model's
   build reuses it, and it is unmapped when the pass is released (or
   its OCaml handle collected), so its pages go back to the OS at once,
   not to the allocator's free lists. */

struct window_key {
  const size_t *obs;
  size_t len, w;
  size_t common; /* with the window before it in sorted order */
};

struct table {
  size_t bytes; /* of the block this struct heads */
  size_t n, m, windows, nodes, roots, tasks;
  double *a;    /* n×n transitions, row-major */
  double *at;   /* A's columns: at[j·n + i] = a[i·n + j] */
  double *bt;   /* emissions by symbol: bt[o·n + i] = b_i(o) */
  double *rows; /* node v's scaled forward row at rows + v·n */
  double *scale, *ll; /* per node */
  size_t *obs, *off, *node; /* window w is obs[off[w] .. off[w+1]) */
  size_t *sym, *parent, *task; /* task k is nodes [task[2k], task[2k+1]) */
  struct window_key *sorted;
  unsigned char *dead; /* per node: the prefix is impossible */
  atomic_size_t next_task;
};

/* ---- The E-step -------------------------------------------------------

   [Hmm.Pass.step] runs the E-step of [Hmm.baum_welch_step] over the
   pass's weighted windows, which come first in its table, reading each
   step's forward row and scale from the table. A window with an
   impossible prefix, or none, adds nothing. The windows go in blocks
   whose scratch stays under [BLOCK_BYTES] unless one window alone needs
   more; each block runs two phases, with a barrier after each:

   - phase A, split by window: the backward pass, γ and the ξ
     normaliser of each window, stored per window as weight·γ (with a
     flag for the steps whose γ sum is positive), the ξ coefficients
     weight·α_t(i)/s_t and the ξ factors bb_t(j) = b_j(o_{t+1})·β_{t+1}(j);
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
  const struct table *t;
  const double *weight;
  double *a_acc, *b_acc, *pi_acc;
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
  double *beta, *rsum; /* 2n, n */
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
  void (*build_tasks)(void *);
  void (*run_blocks)(void *);
} kernels = { propagate_2, build_tasks_2, run_blocks_2 };

#if defined(__x86_64__)
__attribute__((constructor)) static void select_kernels(void)
{
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) {
    kernels.propagate = propagate_4;
    kernels.build_tasks = build_tasks_4;
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

/* Under the sanitize profile the table is a malloc block, so that an
   overrun of it is reported. */
static void *table_map(size_t bytes)
{
#ifdef ADPROM_SANITIZE
  return malloc(bytes);
#else
  void *p = mmap(NULL, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  return p == MAP_FAILED ? NULL : p;
#endif
}

static void table_unmap(struct table *t)
{
  if (!t) return;
#ifdef ADPROM_SANITIZE
  free(t);
#else
  munmap(t, t->bytes);
#endif
}

/* Carves [count] elements of [size] bytes off [*p], 8-byte aligned. */
static void *carve(char **p, size_t count, size_t size)
{
  void *r = *p;
  *p += ((count * size) + 7) & ~(size_t)7;
  return r;
}

/* A table for [n] states, [m] symbols and [windows] windows of [total]
   steps in all, with room for [total] nodes, its parts laid out in one
   block. */
static struct table *table_alloc(size_t n, size_t m, size_t windows, size_t total)
{
  const size_t doubles = (2 * n * n) + (m * n) + (2 * total) + (total * n);
  const size_t sizes = (6 * total) + windows + 1;
  const size_t bytes = ((sizeof(struct table) + 7) & ~(size_t)7) + (doubles * sizeof(double)) +
                       (sizes * sizeof(size_t)) + (windows * sizeof(struct window_key)) +
                       total + 64;
  struct table *t = table_map(bytes);
  if (!t) return NULL;
  char *p = (char *)t;
  carve(&p, 1, sizeof *t);
  t->bytes = bytes;
  t->n = n;
  t->m = m;
  t->windows = windows;
  t->a = carve(&p, n * n, sizeof(double));
  t->at = carve(&p, n * n, sizeof(double));
  t->bt = carve(&p, m * n, sizeof(double));
  t->scale = carve(&p, total, sizeof(double));
  t->ll = carve(&p, total, sizeof(double));
  t->obs = carve(&p, total, sizeof(size_t));
  t->off = carve(&p, windows + 1, sizeof(size_t));
  t->node = carve(&p, total, sizeof(size_t));
  t->sym = carve(&p, total, sizeof(size_t));
  t->parent = carve(&p, total, sizeof(size_t));
  t->task = carve(&p, 2 * total, sizeof(size_t));
  t->sorted = carve(&p, windows, sizeof(struct window_key));
  t->dead = carve(&p, total, 1);
  t->rows = carve(&p, total * n, sizeof(double));
  return t;
}

static int compare_windows(const void *x, const void *y)
{
  const struct window_key *p = x, *q = y;
  const size_t len = p->len < q->len ? p->len : q->len;
  for (size_t k = 0; k < len; k++)
    if (p->obs[k] != q->obs[k]) return p->obs[k] < q->obs[k] ? -1 : 1;
  return (p->len > q->len) - (p->len < q->len);
}

/* larger tasks first */
static int compare_tasks(const void *x, const void *y)
{
  const size_t *p = x, *q = y, sp = p[1] - p[0], sq = q[1] - q[0];
  return (sp < sq) - (sp > sq);
}

/* Numbers the distinct prefixes of the table's windows, as the section
   comment above says. */
static void number_prefixes(struct table *t)
{
  struct window_key *key = t->sorted;
  for (size_t w = 0; w < t->windows; w++)
    key[w] = (struct window_key){ t->obs + t->off[w], t->off[w + 1] - t->off[w], w, 0 };
  qsort(key, t->windows, sizeof *key, compare_windows);
  t->roots = 0;
  for (size_t k = 0; k < t->windows; k++) {
    size_t common = 0;
    if (k > 0) {
      const size_t limit = key[k].len < key[k - 1].len ? key[k].len : key[k - 1].len;
      while (common < limit && key[k].obs[common] == key[k - 1].obs[common]) common++;
    }
    key[k].common = common;
    if (key[k].len > 0 && common == 0) t->roots++;
  }
  size_t root = 0, v = t->roots;
  t->tasks = 0;
  for (size_t k = 0; k < t->windows; k++) {
    size_t *node = t->node + t->off[key[k].w];
    const size_t *prev = k > 0 ? t->node + t->off[key[k - 1].w] : NULL;
    for (size_t d = 0; d < key[k].len; d++) {
      if (d < key[k].common) {
        node[d] = prev[d];
        continue;
      }
      const size_t id = d == 0 ? root++ : v++;
      t->sym[id] = key[k].obs[d];
      t->parent[id] = d == 0 ? 0 : node[d - 1];
      if (d == 1) {
        if (t->tasks > 0) t->task[(2 * t->tasks) - 1] = id;
        t->task[2 * t->tasks] = id;
        t->tasks++;
      }
      node[d] = id;
    }
  }
  if (t->tasks > 0) t->task[(2 * t->tasks) - 1] = v;
  t->nodes = v;
  qsort(t->task, t->tasks, 2 * sizeof *t->task, compare_tasks);
}

static void table_finalize(value v)
{
  struct table **p = Data_custom_val(v);
  table_unmap(*p);
  *p = NULL;
}

static struct custom_operations table_ops = {
  "adprom.hmm.prefix_table", table_finalize,
  custom_compare_default,    custom_hash_default,
  custom_serialize_default,  custom_deserialize_default,
  custom_compare_ext_default, custom_fixed_length_default,
};

static struct table *table_val(value v, const char *what)
{
  struct table *t = *(struct table **)Data_custom_val(v);
  if (!t) caml_invalid_argument(what);
  return t;
}

/* [adprom_hmm_pass_layout obs off n m] lays out the windows
   obs[off[w] .. off[w+1]) and numbers their prefixes in a table for
   models of [n] states and [m] symbols. [Hmm.Pass.create] checks the
   range of every observation before the call. */
value adprom_hmm_pass_layout(value vobs, value voff, value vn, value vm)
{
  const size_t windows = Wosize_val(voff) - 1, total = Wosize_val(vobs);
  struct table *t = table_alloc(Long_val(vn), Long_val(vm), windows, total);
  if (!t) caml_raise_out_of_memory();
  copy_ints(vobs, t->obs, total);
  copy_ints(voff, t->off, windows + 1);
  number_prefixes(t);
  /* the last use of an argument is above: the allocation may move them */
  value handle = caml_alloc_custom(&table_ops, sizeof t, 0, 1);
  *(struct table **)Data_custom_val(handle) = t;
  return handle;
}

/* [adprom_hmm_pass_build table a b pi scores] fills the table with the
   rows of the model (a, b, pi) and stores each window's per-symbol
   score in scores[w]. [Hmm.Pass] checks that the model has the table's
   dimensions before the call. */
value adprom_hmm_pass_build(value vtable, value va, value vb, value vpi, value vscores)
{
  struct table *t = table_val(vtable, "Hmm.Pass: the pass was released");
  GUARD(&va, &vb, &vpi, &vscores);
  const size_t n = t->n;
  memcpy(t->a, (const double *)va, n * n * sizeof(double));
  transpose(t->a, n, n, t->at);
  transpose((const double *)vb, n, t->m, t->bt);
  for (size_t v = 0; v < t->roots; v++) {
    double *row = t->rows + (v * n);
    const double *b = t->bt + (t->sym[v] * n);
    double s = 0.0;
    for (size_t i = 0; i < n; i++) {
      double x = ((const double *)vpi)[i] * b[i];
      row[i] = x;
      s += x;
    }
    t->dead[v] = !(s > 0.0);
    if (t->dead[v]) continue;
    for (size_t i = 0; i < n; i++) row[i] = row[i] / s;
    t->scale[v] = s;
    t->ll[v] = 0.0 + log(s);
  }
  size_t threads = allowed_cpus();
  if (threads > t->tasks) threads = t->tasks;
  if (threads < 1) threads = 1;
  /* every thread is handed the one table */
  struct table **shared = malloc(threads * sizeof *shared);
  if (shared) {
    for (size_t k = 0; k < threads; k++) shared[k] = t;
    atomic_init(&t->next_task, 0);
    run_threads(threads, kernels.build_tasks, shared, sizeof *shared, NULL);
    free(shared);
    double *scores = (double *)vscores;
    for (size_t w = 0; w < t->windows; w++) {
      const size_t len = t->off[w + 1] - t->off[w];
      const size_t end = len ? t->node[t->off[w + 1] - 1] : 0;
      scores[w] = len == 0 ? 0.0 : t->dead[end] ? -INFINITY : t->ll[end] / (double)len;
    }
  }
  UNGUARD();
  if (!shared) caml_raise_out_of_memory();
  return Val_unit;
}

/* Unmaps a table; a second release does nothing. */
value adprom_hmm_pass_release(value vtable)
{
  table_finalize(vtable);
  return Val_unit;
}

/* [adprom_hmm_pass_step table weights a_acc b_acc pi_acc ll] adds the
   E-step of the table's first windows, one per weight, into the zeroed
   accumulators and stores the weighted log-likelihood in ll[0]. */
value adprom_hmm_pass_step(value vtable, value vweights, value va_acc, value vb_acc,
                           value vpi_acc, value vll)
{
  const struct table *t = table_val(vtable, "Hmm.Pass: the pass was released");
  GUARD(&vweights, &va_acc, &vb_acc, &vpi_acc, &vll);
  struct estep e;
  const size_t n = t->n, windows = float_length(vweights);
  memset(&e, 0, sizeof e);
  e.t = t;
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

  e.block = malloc((windows + 1) * sizeof *e.block);
  e.next_window = malloc((windows + 1) * sizeof *e.next_window);
  e.next_row = malloc((windows + 1) * sizeof *e.next_row);
  e.possible = malloc(windows + 1);
  if (!(e.block && e.next_window && e.next_row && e.possible)) goto out;
  /* blocks: whole windows while their scratch fits BLOCK_BYTES; a
     longer window gets a block of its own */
  const size_t cap = BLOCK_BYTES / ((3 * n * sizeof(double)) + 1);
  size_t steps = 0, max_steps = 0;
  for (size_t w = 0; w < windows; w++) {
    const size_t len = t->off[w + 1] - t->off[w];
    e.possible[w] = len > 0 && !t->dead[t->node[t->off[w + 1] - 1]];
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

  e.wg = malloc((max_steps * n + 1) * sizeof *e.wg);
  e.coef = malloc((max_steps * n + 1) * sizeof *e.coef);
  e.bb = malloc((max_steps * n + 1) * sizeof *e.bb);
  e.gflag = malloc(max_steps + 1);
  wk = calloc(threads, sizeof *wk);
  per_thread = malloc((threads * 3 * n + 1) * sizeof *per_thread);
  if (!(e.wg && e.coef && e.bb && e.gflag && wk && per_thread)) goto out;
  ok = 1;
  for (size_t k = 0; k < threads; k++) {
    wk[k].e = &e;
    wk[k].beta = per_thread + (k * 3 * n);
    wk[k].rsum = wk[k].beta + (2 * n);
  }
  pthread_mutex_init(&e.bar.mu, NULL);
  pthread_cond_init(&e.bar.cv, NULL);
  run_threads(threads, kernels.run_blocks, wk, sizeof *wk, &e.bar);
  pthread_cond_destroy(&e.bar.cv);
  pthread_mutex_destroy(&e.bar.mu);

  double total_ll = 0.0;
  for (size_t w = 0; w < windows; w++)
    if (e.possible[w]) total_ll += e.weight[w] * t->ll[t->node[t->off[w + 1] - 1]];
  Store_double_flat_field(vll, 0, total_ll);

out:
  free(per_thread);
  free(wk);
  free(e.gflag);
  free(e.bb);
  free(e.coef);
  free(e.wg);
  free(e.possible);
  free(e.next_row);
  free(e.next_window);
  free(e.block);
  UNGUARD();
  if (!ok) caml_raise_out_of_memory();
  return Val_unit;
}

value adprom_hmm_pass_step_byte(value *argv, int argn)
{
  (void)argn;
  return adprom_hmm_pass_step(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5]);
}
