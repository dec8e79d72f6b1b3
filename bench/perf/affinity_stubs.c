/* Thread CPU affinity for the benchmark's placement policy (Linux). */

#define _GNU_SOURCE
#include <sched.h>
#include <sys/types.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

/* Restrict thread [tid] to CPU [cpu]; false when the kernel refuses. */
value caml_perf_pin(value tid, value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity((pid_t)Int_val(tid), sizeof set, &set) == 0);
}

/* The CPUs the calling thread may run on, ascending. */
value caml_perf_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(cpus);
  cpu_set_t set;
  int n, i, k = 0;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) CAMLreturn(Atom(0));
  n = CPU_COUNT(&set);
  if (n == 0) CAMLreturn(Atom(0));
  cpus = caml_alloc(n, 0);
  for (i = 0; i < CPU_SETSIZE && k < n; i++)
    if (CPU_ISSET(i, &set)) Store_field(cpus, k++, Val_int(i));
  CAMLreturn(cpus);
}
