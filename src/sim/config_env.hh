/**
 * @file
 * Shared environment and command-line configuration plumbing.
 *
 * Every bench harness and the sossim CLI accept the same overrides:
 *
 *   environment   SOS_CYCLE_SCALE, SOS_SEED, SOS_JOBS (worker
 *                 threads), SOS_SNAPSHOT (0 disables the snapshot
 *                 fast path), SOS_TRACE_SAMPLE (keep every Nth
 *                 sample-phase trace group), SOS_MACHINE_CONFIG
 *                 (machine description file; see configs/), SOS_OUT
 *                 (manifest path), SOS_TRACE (decision-trace path)
 *   command line  --set key=value (repeated), --jobs N,
 *                 --machine-config FILE, --out FILE.json,
 *                 --trace FILE.jsonl, --bench FILE.json (host-timing
 *                 report; flag only, no environment alias)
 *
 * This module is the one place that parsing lives; reporting.hh is
 * again purely about table formatting.
 */

#ifndef SOS_SIM_CONFIG_ENV_HH
#define SOS_SIM_CONFIG_ENV_HH

#include <string>
#include <utility>
#include <vector>

#include "sim/sim_config.hh"

namespace sos {

/**
 * Read the standard environment overrides used by every bench binary:
 * SOS_CYCLE_SCALE (cycle scale divisor), SOS_SEED, and SOS_JOBS
 * (sweep worker threads).
 */
SimConfig benchConfigFromEnv();

/** The run-output destinations, from flags or environment. */
struct OutputPaths
{
    std::string manifest; ///< --out / SOS_OUT; empty = no manifest
    std::string trace;    ///< --trace / SOS_TRACE; empty = no trace
    /**
     * --bench; empty = no host-timing report. Wall-clock timing lives
     * in its own "sos.bench" file (never the manifest): manifests stay
     * bit-comparable across hosts and worker counts.
     */
    std::string bench;
};

/** Resolve SOS_OUT / SOS_TRACE when no flags given. */
OutputPaths outputPathsFromEnv();

/** Everything a bench binary's command line can configure. */
struct BenchOptions
{
    SimConfig config;
    OutputPaths out;
};

/**
 * Parse a bench harness command line: repeated --set key=value,
 * --jobs N, --machine-config FILE, --model FILE, --out FILE,
 * --trace FILE, --bench FILE.
 * Environment overrides are applied first, so flags win. Unknown
 * arguments are fatal().
 */
BenchOptions parseBenchArgs(int argc, char **argv);

} // namespace sos

#endif // SOS_SIM_CONFIG_ENV_HH
