/* Monotonic nanosecond clock: Sds_obs.Span.monotonic_ns, and the default
 * source of Sds_obs.Obs.now.
 *
 * Declared [@@noalloc] on the OCaml side: the result is an immediate
 * (Val_long), no OCaml heap interaction, so the stamp compiles to a plain
 * C call with no caml_enter/leave overhead.  63-bit ns wraps after ~146
 * years of uptime, which is fine for interval arithmetic. */

#include <caml/mlvalues.h>
#include <time.h>

CAMLprim value sds_span_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
