// A SIGPROF program-counter sampler, loaded into the program under study
// with LD_PRELOAD. It needs no rebuild of the program and no privileges.
//
//   cc -O2 -shared -fPIC -o sigprof.so scripts/profile/sigprof.c
//   SIGPROF_OUT=prof.txt LD_PRELOAD=$PWD/sigprof.so ./program args...
//   python3 scripts/profile/symbolize.py prof.txt.<pid>
//
// The interval timer is ITIMER_PROF (setitimer), which counts the CPU
// time of this process alone, user and system, over all its threads. It
// asks for SIGPROF 997 times per CPU second (prime, so that sampling does
// not lock onto a periodic loop); the handler records the interrupted
// program counter. The kernel rounds the interval up to its scheduler
// tick, so a kernel built with a 250 Hz tick delivers about 250 samples
// per CPU second: fewer samples, but each still lands on CPU time of the
// process, so the shares stay valid. Nothing outside the process is
// touched: no system setting, no other process.
//
// At exit the sampler writes SIGPROF_OUT.<pid> (default sigprof.<pid>):
// the process's memory map (a copy of /proc/self/maps), then a header
// line with the sample count, the dropped samples, the process's CPU
// seconds and the requested rate, then one hexadecimal program counter
// per sample. The pid suffix keeps the files
// of a program's children apart (they inherit LD_PRELOAD). A process that
// ends without running its exit handlers (_exit, a fatal signal) writes
// nothing.
//
// Limits: a program that installs its own SIGPROF handler or ITIMER_PROF
// timer overrides this one; samples past kMaxSamples are dropped and
// counted.
#define _GNU_SOURCE
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kMaxSamples = 1 << 22 };  // 32 MiB of program counters
enum { kHz = 997 };

static uintptr_t samples[kMaxSamples];
static atomic_size_t num_samples;
static atomic_size_t dropped;

static uintptr_t InterruptedPc(const ucontext_t* uc) {
#if defined(__x86_64__)
  return (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  return (uintptr_t)uc->uc_mcontext.pc;
#else
#error "sigprof.c reads the program counter on x86-64 and AArch64 only"
#endif
}

static void OnSigprof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  size_t i = atomic_fetch_add_explicit(&num_samples, 1, memory_order_relaxed);
  if (i < kMaxSamples) {
    samples[i] = InterruptedPc((const ucontext_t*)context);
  } else {
    atomic_fetch_add_explicit(&dropped, 1, memory_order_relaxed);
  }
}

__attribute__((constructor)) static void StartSampling(void) {
  struct sigaction action;
  memset(&action, 0, sizeof(action));
  action.sa_sigaction = OnSigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, NULL) != 0) return;
  struct itimerval timer;
  timer.it_interval.tv_sec = 0;
  timer.it_interval.tv_usec = 1000000 / kHz;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, NULL);
}

__attribute__((destructor)) static void WriteSamples(void) {
  struct itimerval off;
  memset(&off, 0, sizeof(off));
  setitimer(ITIMER_PROF, &off, NULL);
  const char* prefix = getenv("SIGPROF_OUT");
  char path[4096];
  snprintf(path, sizeof(path), "%s.%ld", prefix != NULL ? prefix : "sigprof",
           (long)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) return;
  fprintf(out, "# sigprof maps\n");
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[8192];
    while (fgets(line, sizeof(line), maps) != NULL) fputs(line, out);
    fclose(maps);
  }
  size_t n = atomic_load(&num_samples);
  if (n > kMaxSamples) n = kMaxSamples;
  struct timespec cpu;
  double cpu_s = clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu) == 0
                     ? (double)cpu.tv_sec + 1e-9 * (double)cpu.tv_nsec
                     : 0.0;
  fprintf(out, "# sigprof samples %zu dropped %zu cpu_s %.6f hz %d\n", n,
          atomic_load(&dropped), cpu_s, kHz);
  for (size_t i = 0; i < n; ++i) fprintf(out, "%lx\n", (unsigned long)samples[i]);
  fclose(out);
}
