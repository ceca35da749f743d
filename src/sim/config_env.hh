/**
 * @file
 * Shared environment and command-line configuration plumbing.
 *
 * Every bench harness and the sossim CLI accept the same overrides:
 *
 *   environment   the knob aliases of the params_io table, SOS_JOBS
 *                 (worker threads), SOS_MACHINE_CONFIG (see
 *                 configs/), SOS_OUT (manifest), SOS_TRACE (trace)
 *   command line  --set key=value (repeated), --jobs N,
 *                 --machine-config FILE, --out FILE.json,
 *                 --trace FILE.jsonl, --bench FILE.json (host-timing
 *                 report; flag only, no environment alias)
 *
 * Precedence: bench default < environment < machine file < flags;
 * then the core and memory parameters are validated once.
 * This module is the one place that parsing lives; reporting.hh is
 * again purely about table formatting.
 */

#ifndef SOS_SIM_CONFIG_ENV_HH
#define SOS_SIM_CONFIG_ENV_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/sim_config.hh"

namespace sos {

/**
 * Read the standard environment overrides used by every bench binary:
 * each knob's alias from the params_io table, SOS_MACHINE_CONFIG and
 * SOS_JOBS (sweep worker threads). @p cycle_scale is the bench's own
 * default, which SOS_CYCLE_SCALE overrides.
 */
SimConfig
benchConfigFromEnv(std::uint64_t cycle_scale = makeBenchConfig().cycleScale);

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
 * The bench's default @p cycle_scale applies first, then the
 * environment overrides, then the flags, so the last one set wins;
 * then validateConfig(). Unknown arguments are fatal().
 */
BenchOptions
parseBenchArgs(int argc, char **argv,
               std::uint64_t cycle_scale = makeBenchConfig().cycleScale);

} // namespace sos

#endif // SOS_SIM_CONFIG_ENV_HH
