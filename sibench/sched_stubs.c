/* sched_setscheduler(2), which the OCaml Unix library lacks: the load
   generator runs at real-time priority during traffic, so the server it
   measures cannot delay its schedule. */

#define _GNU_SOURCE
#include <sched.h>
#include <string.h>

#include <caml/mlvalues.h>

/* [realtime on] moves the calling thread to SCHED_FIFO priority 1 with
   SCHED_RESET_ON_FORK (children start back at SCHED_OTHER), or [on =
   false] back to SCHED_OTHER.  Returns false when not permitted. */
CAMLprim value sibench_realtime(value von)
{
  struct sched_param sp;
  int policy = SCHED_OTHER;
  memset(&sp, 0, sizeof sp);
  if (Bool_val(von)) {
    policy = SCHED_FIFO | SCHED_RESET_ON_FORK;
    sp.sched_priority = 1;
  }
  return Val_bool(sched_setscheduler(0, policy, &sp) == 0);
}
