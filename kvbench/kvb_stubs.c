/* Monotonic nanosecond clock for the benchmark's timers.  The
   library's Obs.Clock reads gettimeofday (microsecond resolution,
   steppable), too coarse for sub-microsecond map operations. */
#define _POSIX_C_SOURCE 200809L
#include <time.h>
#include <caml/mlvalues.h>

value kvb_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
