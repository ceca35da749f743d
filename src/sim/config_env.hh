/**
 * @file
 * Shared environment and command-line configuration plumbing.
 *
 * Every bench harness and every sossim subcommand parses its command
 * line here, through one table of flags: the shared rows below plus
 * the rows the tool declares (a name, a value placeholder, one help
 * line and a setter). The same rows drive parsing, the error for an
 * unknown flag and the --help text.
 *
 *   environment   the knob aliases of the params_io table, SOS_JOBS
 *                 (worker threads), SOS_MACHINE_CONFIG (see
 *                 configs/), SOS_OUT (manifest), SOS_TRACE (trace)
 *   command line  --set key=value (repeated), --jobs N,
 *                 --machine-config FILE, --model FILE,
 *                 --out FILE.json, --trace FILE.jsonl,
 *                 --bench FILE.json (host-timing report; flag only,
 *                 no environment alias), then the tool's own flags
 *
 * Precedence: bench default < environment < machine files < the
 * --set/--jobs/--model flags in command-line order; machine files
 * apply before any --set wherever they stand on the command line.
 * Then the core and memory parameters are validated once.
 * This module is the one place that parsing lives; reporting.hh is
 * again purely about table formatting.
 */

#ifndef SOS_SIM_CONFIG_ENV_HH
#define SOS_SIM_CONFIG_ENV_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/params_io.hh"
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

/** Everything a bench binary's command line can configure. */
struct BenchOptions
{
    SimConfig config;
    OutputPaths out;
};

/**
 * One command-line flag a tool declares: "--name value" hands the
 * value to set(). A row with an empty name takes the positional
 * operands instead, and its placeholder joins the usage synopsis.
 */
struct Flag
{
    std::string name;        ///< "--level"; empty = the operand row
    std::string placeholder; ///< value shape for --help: "N", "FILE"
    std::string help;        ///< one line for --help
    std::function<void(const std::string &value)> set;

    /**
     * A row that parses its value into @p target: an int (or an
     * optional one, empty until given), an unsigned or a double
     * through parseKnobInt/U64/Double, so errors name the flag, or a
     * string as given.
     */
    template <typename T>
    static Flag
    into(std::string name, std::string placeholder, std::string help,
         T &target)
    {
        auto set = [name, &target](const std::string &value) {
            if constexpr (std::is_same_v<T, int> ||
                          std::is_same_v<T, std::optional<int>>)
                target = parseKnobInt(name, value);
            else if constexpr (std::is_same_v<T, std::uint64_t>)
                target = parseKnobU64(name, value);
            else if constexpr (std::is_same_v<T, double>)
                target = parseKnobDouble(name, value);
            else
                target = value;
        };
        return {std::move(name), std::move(placeholder), std::move(help),
                std::move(set)};
    }

    /**
     * A row that parses a count in [1, @p max] into @p target, an int
     * or an optional one, through parseKnobCount(): zero, a negative
     * or a too-large value is fatal(), naming the flag.
     */
    template <typename T>
    static Flag
    count(std::string name, std::string placeholder, std::string help,
          T &target, int max = std::numeric_limits<int>::max())
    {
        auto set = [name, &target, max](const std::string &value) {
            target = parseKnobCount(name, value, max);
        };
        return {std::move(name), std::move(placeholder), std::move(help),
                std::move(set)};
    }
};

/**
 * Walk argv[1..argc) through @p flags. Each "--name value" pair goes
 * to its row's setter and the one other argument allowed to the
 * operand row.
 * --help (or -h) prints "usage: <tool>", the rows and @p footer, then
 * exits 0. Any other argument is fatal(), naming it and listing the
 * flags @p tool accepts.
 */
void parseFlags(const std::string &tool, const std::vector<Flag> &flags,
                int argc, char **argv, const std::string &footer = "");

/** What a bench binary or sossim subcommand adds to the shared flags. */
struct CommandLine
{
    std::string tool; ///< as --help and the manifest name it
    /** The tool's default SOS_CYCLE_SCALE. */
    std::uint64_t cycleScale = makeBenchConfig().cycleScale;
    std::vector<Flag> flags = {}; ///< the tool's own rows
    /**
     * Given (sossim cluster), two or more --machine-config files
     * build one configuration each here, one per node, and the
     * returned configuration loads none of them. Each node's file
     * takes the file's place in the precedence below, so the --set,
     * --jobs and --model flags win over it as over any machine file.
     */
    std::vector<SimConfig> *nodeConfigs = nullptr;
};

/**
 * Parse a bench harness or sossim command line: the shared flags
 * (--set key=value, --jobs N, --machine-config FILE, --model FILE,
 * --out FILE, --trace FILE, --bench FILE) plus @p cli's own rows,
 * through parseFlags(). The bench's default cycle scale applies
 * first, then the environment, then the machine files, then --set,
 * --jobs and --model in command-line order; then validateConfig().
 */
BenchOptions parseBenchArgs(const CommandLine &cli, int argc, char **argv);

/** fatal(), naming flag @p name, if @p paper_cycles scales to zero. */
void requireScaledFlag(const std::string &name, std::uint64_t paper_cycles,
                       const SimConfig &config);

} // namespace sos

#endif // SOS_SIM_CONFIG_ENV_HH
