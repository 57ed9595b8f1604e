/* SIGPROF program-counter sampler, loaded with LD_PRELOAD by
 * scripts/profile.sh (a stand-in for `perf record` on hosts without it).
 *
 * ITIMER_PROF fires every 200 us of process CPU time (5 kHz); the handler
 * stores the interrupted PC. At exit every PC is written, one per line,
 * as `<mapped file> <hex offset from that file's load base>` to the path
 * in SAMPLER_OUT (default `sampler.pcs`), so addr2line can name it. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 22)
static unsigned long pcs[MAX_SAMPLES];
static volatile size_t n_pcs;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    if (n_pcs < MAX_SAMPLES)
        pcs[n_pcs++] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{0, 200}, {0, 200}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval disarm = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &disarm, NULL);
    const char *path = getenv("SAMPLER_OUT");
    FILE *out = fopen(path ? path : "sampler.pcs", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096], file[4096], base_file[4096] = "";
    unsigned long lo, hi, off, base = 0;
    while (fgets(line, sizeof line, maps)) {
        file[0] = '\0';
        if (sscanf(line, "%lx-%lx %*s %lx %*s %*s %4095s", &lo, &hi, &off, file) < 3 || !file[0])
            continue;
        if (strcmp(file, base_file) != 0) { /* first mapping of a file: its load base */
            strcpy(base_file, file);
            base = lo - off;
        }
        for (size_t i = 0; i < n_pcs; i++)
            if (pcs[i] >= lo && pcs[i] < hi)
                fprintf(out, "%s %016lx\n", file, pcs[i] - base);
    }
    fclose(maps);
    fclose(out);
}
