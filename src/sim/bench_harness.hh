/**
 * @file
 * Common scaffolding for the bench binaries and the sossim CLI.
 *
 * A harness owns the parsed configuration, the run's stats Registry,
 * and its decision EventTrace. Bench mains and sossim subcommands
 * construct one from (CommandLine, argc, argv), register stats while
 * printing their usual tables, and end with `return harness.finish();`
 * -- which writes the schema-versioned JSON manifest (--out / SOS_OUT)
 * and the JSONL decision trace (--trace / SOS_TRACE) when requested,
 * and is a no-op otherwise. One call site per binary keeps every harness's
 * machine-readable output identical in shape.
 *
 * The harness also measures its own wall-clock duration, from
 * construction to finish(). Timing is host noise, so it lives in a
 * separate host-timing registry that never reaches the manifest
 * (manifests must stay bit-comparable across hosts and worker counts).
 * --bench FILE writes that registry as one "sos.bench" schema v3
 * document: top-level tool, jobs and sample, then "stats" with the
 * always-present "timing" section
 * (elapsed_seconds, candidates, candidates_per_sec) and the sections
 * harnesses add through bench(name): micro_simulator's "core" and
 * fig9_cluster's "cluster".
 */

#ifndef SOS_SIM_BENCH_HARNESS_HH
#define SOS_SIM_BENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <string>

#include "sim/config_env.hh"
#include "stats/manifest.hh"
#include "stats/stats.hh"
#include "stats/trace.hh"

namespace sos {

/** Configuration, stats and outputs of one harness run. */
class BenchHarness
{
  public:
    /**
     * Parse the command line: the shared flags plus @p cli's own rows
     * (see parseBenchArgs), named after cli.tool.
     */
    BenchHarness(const CommandLine &cli, int argc, char **argv);

    /** Effective configuration; mutable so harnesses may tweak it. */
    SimConfig &config() { return options_.config; }
    const SimConfig &config() const { return options_.config; }

    stats::Registry &registry() { return registry_; }

    /** Root registration handle. */
    stats::Group root() { return stats::Group(registry_); }

    /** Registration handle under one top-level group. */
    stats::Group
    group(const std::string &name)
    {
        return root().group(name);
    }

    /** The run's decision trace (populated only when requested). */
    stats::EventTrace &trace() { return trace_; }

    /** True when --trace / SOS_TRACE asked for decision events. */
    bool wantsTrace() const { return !options_.out.trace.empty(); }

    /** True when --bench asked for the host-timing report. */
    bool wantsBench() const { return !options_.out.bench.empty(); }

    /**
     * Registration handle under one top-level group of the host-timing
     * registry: wall-clock measurements that belong in the --bench
     * document and never in the manifest.
     */
    stats::Group
    bench(const std::string &name)
    {
        return stats::Group(bench_).group(name);
    }

    /**
     * Write the manifest, trace and bench report if their
     * destinations were set. Returns the process exit status (0), so
     * mains can end with `return harness.finish();`.
     * Non-const: with sampling enabled it first registers the
     * "sampling" stats group (config, cycle split, error estimates)
     * from the process-wide accumulator.
     */
    int finish();

  private:
    /** Render the host-timing registry as the "sos.bench" document. */
    void writeBench();

    /**
     * Register the "machine.topology" info group describing the
     * configured machine (per-core class, contexts, FU mix, cache
     * geometry). No-op for homogeneous runs, so default manifests
     * stay byte-identical to the pre-config goldens.
     */
    void publishMachineTopology();

    std::string tool_;
    BenchOptions options_;
    stats::Registry registry_;
    stats::Registry bench_; ///< host timing; never reaches the manifest
    stats::EventTrace trace_;
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
};

} // namespace sos

#endif // SOS_SIM_BENCH_HARNESS_HH
