/* CPU affinity of the calling thread (Linux sched_{get,set}affinity).
   Threads created afterwards inherit the mask, which is how the
   benchmark places a server's worker domains on their own CPU. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/alloc.h>

/* The CPUs the calling thread may run on, ascending; [] on failure. */
value bench_affinity_get(value unit)
{
  CAMLparam1(unit);
  CAMLlocal2(list, cell);
  cpu_set_t set;
  list = Val_emptylist;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; cpu--) {
      if (CPU_ISSET(cpu, &set)) {
        cell = caml_alloc(2, 0);
        Store_field(cell, 0, Val_int(cpu));
        Store_field(cell, 1, list);
        list = cell;
      }
    }
  }
  CAMLreturn(list);
}

/* Restrict the calling thread to the listed CPUs; false on failure. */
value bench_affinity_set(value cpus)
{
  CAMLparam1(cpus);
  cpu_set_t set;
  CPU_ZERO(&set);
  for (value l = cpus; l != Val_emptylist; l = Field(l, 1)) {
    int cpu = Int_val(Field(l, 0));
    if (cpu >= 0 && cpu < CPU_SETSIZE) CPU_SET(cpu, &set);
  }
  CAMLreturn(Val_bool(sched_setaffinity(0, sizeof set, &set) == 0));
}
