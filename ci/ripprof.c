/*
 * SIGPROF program-counter sampler, preloaded into any binary:
 *
 *   cc -O2 -shared -fPIC ci/ripprof.c -o ripprof.so
 *   LD_PRELOAD=$PWD/ripprof.so SOS_JOBS=1 ./build/bench/fig1_ws_range ...
 *   python3 ci/ripprof.py ripprof.<pid>.txt
 *
 * Every 1 ms of process CPU time the handler stores the interrupted
 * instruction pointer (x86-64 Linux). At exit the samples and the
 * process's executable mappings go to ripprof.<pid>.txt in the working
 * directory; ci/ripprof.py symbolizes them with addr2line. Build the
 * profiled binary with -g (Release flags plus -g keeps the optimized
 * code and adds line tables) so inlined frames resolve.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 22)

static uintptr_t samples[MAX_SAMPLES];
static atomic_uint numSamples;

static void
onProf(int sig, siginfo_t *info, void *ctx)
{
    (void)sig;
    (void)info;
    const unsigned i = atomic_fetch_add(&numSamples, 1);
    if (i < MAX_SAMPLES)
        samples[i] = (uintptr_t)((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void
start(void)
{
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    const struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void
stop(void)
{
    const struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[64];
    snprintf(path, sizeof path, "ripprof.%d.txt", (int)getpid());
    FILE *out = fopen(path, "w");
    if (out == NULL)
        return;
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[4096];
    while (maps != NULL && fgets(line, sizeof line, maps) != NULL) {
        if (strstr(line, " r-xp ") != NULL)
            fprintf(out, "map %s", line);
    }
    if (maps != NULL)
        fclose(maps);
    unsigned n = atomic_load(&numSamples);
    if (n > MAX_SAMPLES)
        n = MAX_SAMPLES;
    for (unsigned i = 0; i < n; ++i)
        fprintf(out, "%lx\n", (unsigned long)samples[i]);
    fclose(out);
}
