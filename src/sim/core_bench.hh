/**
 * @file
 * Host-throughput microbenchmark of the SmtCore cycle loop.
 *
 * Runs a fixed, deterministic workload -- one SMT core per level in
 * {1, 2, 4, 6} contexts, each bound to library workloads with fixed
 * seeds and driven for a fixed cycle budget -- and reports how fast
 * the *host* chews through simulated cycles and retired instructions.
 *
 * The simulated side (cycles, retired, IPC) is bit-reproducible: it
 * must not change unless the architectural model changes, which makes
 * the report double as a cheap identity probe (tests/test_bench_report
 * pins it to constants). The host side
 * (cycles/sec, kilo-instructions/sec) is what the CI perf trajectory
 * tracks: it is pure wall-clock and never enters a run manifest.
 *
 * micro_simulator runs it whenever --bench FILE is given and publishes
 * the result as the "core" section of its "sos.bench" document
 * (core.smt<k> per level); the harness never runs it otherwise.
 */

#ifndef SOS_SIM_CORE_BENCH_HH
#define SOS_SIM_CORE_BENCH_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sched/job.hh"
#include "stats/stats.hh"

namespace sos {

class SmtCore;

/** Measured throughput of the core loop at one SMT level. */
struct CoreBenchLevel
{
    int contexts = 0;             ///< hardware contexts exercised
    std::uint64_t cycles = 0;     ///< simulated cycles driven
    std::uint64_t retired = 0;    ///< instructions retired (deterministic)
    double ipc = 0.0;             ///< simulated IPC (deterministic)
    double elapsedSeconds = 0.0;  ///< median host wall-clock of a run
    double cyclesPerSec = 0.0;    ///< host throughput, simulated cycles/s
    double retiredPerSec = 0.0;   ///< host throughput, retired insts/s
};

/** Result of one full microbench sweep over the SMT levels. */
struct CoreBenchResult
{
    static constexpr int numLevels = 4;
    /** Timed runs per level; the level reports their median. */
    static constexpr int repetitions = 5;
    std::array<CoreBenchLevel, numLevels> levels{};
};

/**
 * Bind the microbench's fixed workloads -- library profiles in a fixed
 * rotation with constant seeds -- to contexts 0..level-1 of @p core,
 * so the simulated side is a pure function of the model. The returned
 * jobs own the trace generators and must outlive the run.
 */
std::vector<std::unique_ptr<Job>> attachBenchJobs(SmtCore &core,
                                                  int level);

/**
 * Drive the fixed core-loop workload at every SMT level, repetitions
 * times each from a fresh machine, and report the median host time.
 * Panics if two repetitions of a level simulate different counters.
 *
 * @param cycles_per_level Simulated cycles per run (default sized so
 *        the whole sweep takes a few seconds on a laptop core).
 */
CoreBenchResult runCoreBench(std::uint64_t cycles_per_level = 300000);

/**
 * Register @p result under @p group: one smt<k> group per level
 * (cycles, retired, ipc, elapsed_seconds, cycles_per_sec,
 * retired_per_sec). Meant for a host-timing registry, never a
 * manifest.
 */
void publishCoreBench(const stats::Group &group,
                      const CoreBenchResult &result);

} // namespace sos

#endif // SOS_SIM_CORE_BENCH_HH
