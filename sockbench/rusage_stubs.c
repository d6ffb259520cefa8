/* Process resources for the socket benchmark: CPU time of every thread of
   the process, its peak resident set, and CPU placement. */
#define _GNU_SOURCE
#include <sched.h>
#include <sys/resource.h>
#include <caml/mlvalues.h>

/* User + system CPU time of the whole process, in microseconds. */
value sockbench_cpu_us(value unit)
{
  struct rusage ru;
  (void)unit;
  getrusage(RUSAGE_SELF, &ru);
  return Val_long((long)(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1000000L
                  + ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/* Peak resident set size of the process so far, in KiB. */
value sockbench_maxrss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  getrusage(RUSAGE_SELF, &ru);
  return Val_long(ru.ru_maxrss);
}


/* The [k]-th CPU (from 0) this process may run on, or -1. */
value sockbench_allowed_cpu(value k)
{
  cpu_set_t set;
  long seen = 0;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_long(-1);
  for (int cpu = 0; cpu < CPU_SETSIZE; cpu++)
    if (CPU_ISSET(cpu, &set) && seen++ == Long_val(k)) return Val_long(cpu);
  return Val_long(-1);
}

/* Pin the calling thread to CPU [cpu]; 0 on success, -1 otherwise. */
value sockbench_pin_cpu(value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Long_val(cpu), &set);
  return Val_long(sched_setaffinity(0, sizeof set, &set) == 0 ? 0 : -1);
}
