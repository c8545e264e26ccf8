/* Processor-time clocks for the benchmark: the calling thread's and the
   whole process's, in nanoseconds. Neither advances while the thread or
   process is not running, so CPU steal and preemption by other work on
   the host do not reach the figures they time. */

#include <time.h>
#include <caml/mlvalues.h>

static intnat cpu_ns(clockid_t clock)
{
  struct timespec ts;
  clock_gettime(clock, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

intnat perfbench_thread_cpu_ns(value unit)
{
  (void)unit;
  return cpu_ns(CLOCK_THREAD_CPUTIME_ID);
}

value perfbench_thread_cpu_ns_byte(value unit)
{
  return Val_long(perfbench_thread_cpu_ns(unit));
}

intnat perfbench_process_cpu_ns(value unit)
{
  (void)unit;
  return cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
}

value perfbench_process_cpu_ns_byte(value unit)
{
  return Val_long(perfbench_process_cpu_ns(unit));
}
