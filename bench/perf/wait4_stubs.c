/* Process accounting for the benchmark harness.

   perf_wait4 is wait4(2): it reaps one child and returns its exit status
   together with the child's own resource usage, so a CLI op's peak RSS
   (ru_maxrss, the kernel's VmHWM at exit) and CPU time are exact rather
   than sampled.  perf_process_cpu reads a live process's CPU clock
   (clock_getcpuclockid), so a daemon's CPU time can be read between two
   stretches of its work. */
#define _GNU_SOURCE
#include <errno.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

/* perf_wait4 pid nohang -> (reaped, code, maxrss_kb, cpu_s); reaped is
   false when nohang is set and the child is still running.  code is the
   exit status, or minus the signal number for a killed child.  EINTR
   surfaces as Unix_error so OCaml signal handlers run before the caller
   retries. */
CAMLprim value perf_wait4(value vpid, value vnohang)
{
  CAMLparam2(vpid, vnohang);
  CAMLlocal1(res);
  int status = 0, err;
  struct rusage ru;
  pid_t r;

  caml_enter_blocking_section();
  r = wait4(Int_val(vpid), &status, Bool_val(vnohang) ? WNOHANG : 0, &ru);
  err = errno;
  caml_leave_blocking_section();
  if (r < 0) unix_error(err, "wait4", Nothing);

  res = caml_alloc_tuple(4);
  if (r == 0) {
    Store_field(res, 0, Val_false);
    Store_field(res, 1, Val_int(0));
    Store_field(res, 2, Val_long(0));
    Store_field(res, 3, caml_copy_double(0.0));
    CAMLreturn(res);
  }
  int code = WIFEXITED(status) ? WEXITSTATUS(status)
             : WIFSIGNALED(status) ? -WTERMSIG(status)
             : -255;
  double cpu = (double)ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6 +
               (double)ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6;
  Store_field(res, 0, Val_true);
  Store_field(res, 1, Val_int(code));
  Store_field(res, 2, Val_long(ru.ru_maxrss));
  Store_field(res, 3, caml_copy_double(cpu));
  CAMLreturn(res);
}

/* perf_process_cpu pid -> CPU seconds (user + system, all threads) the
   live process [pid] has used so far. */
CAMLprim value perf_process_cpu(value vpid)
{
  CAMLparam1(vpid);
  clockid_t clock;
  struct timespec ts;
  int err = clock_getcpuclockid(Int_val(vpid), &clock);
  if (err != 0) unix_error(err, "clock_getcpuclockid", Nothing);
  if (clock_gettime(clock, &ts) != 0) unix_error(errno, "clock_gettime", Nothing);
  CAMLreturn(caml_copy_double((double)ts.tv_sec + ts.tv_nsec / 1e9));
}
