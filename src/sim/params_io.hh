/**
 * @file
 * Textual configuration overrides ("key=value") for SimConfig.
 *
 * Lets tools, scripts and the sossim CLI change any tunable of the
 * simulated machine or the experiment harness without recompiling,
 * e.g. `core.intQueueSize=32` or `mem.prefetch.enabled=1`. Unknown
 * keys and malformed values are user errors and fatal().
 * One table (params_io.cc) declares each knob once: key, type,
 * description, range, environment alias and manifest policy. Parsing,
 * `sossim params`, the environment channel and configPairs() all loop
 * over it.
 */

#ifndef SOS_SIM_PARAMS_IO_HH
#define SOS_SIM_PARAMS_IO_HH

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sim/sim_config.hh"

namespace sos {

/** One configurable key, for help output. */
struct ParamInfo
{
    std::string key;
    std::string env;          ///< environment alias; empty = none
    std::string currentValue; ///< rendered from a default SimConfig
    std::string description;
};

/** All keys applyOverride() accepts, with defaults and descriptions. */
std::vector<ParamInfo> configurableParams();

/** Apply a single "key=value" assignment; fatal() on any error. */
void applyOverride(SimConfig &config, const std::string &assignment);

/**
 * Apply one key/value pair, reporting failure instead of fatal()ing:
 * returns false and fills @p error (unknown key or malformed value)
 * so callers with their own context -- the machine-config parser
 * prepends file:line -- can rethrow with a better message.
 */
bool tryApplyOverride(SimConfig &config, const std::string &key,
                      const std::string &value, std::string &error);

/**
 * Apply @p value to the knob @p key; errors name @p name instead (an
 * environment alias such as SOS_SEED or a flag such as --jobs).
 */
void applyKnob(SimConfig &config, const std::string &key,
               const std::string &name, const std::string &value);

/**
 * fatal() with validateCoreParams'/validateMemParams' message unless
 * config.core and config.mem describe a buildable machine; called once
 * every channel has applied, before any simulation.
 */
void validateConfig(const SimConfig &config);

/** Render the full configuration as "key=value" lines. */
std::string renderConfig(const SimConfig &config);

/**
 * The configuration as ordered key/value pairs (the "config" section
 * of a run manifest): the keys of `sossim params`, each under its
 * row's manifest policy.
 */
std::vector<std::pair<std::string, std::string>>
configPairs(const SimConfig &config);

/**
 * Parse one knob value (an environment variable such as SOS_SEED or a
 * command-line flag such as --nodes) as an unsigned integer, an int
 * or a finite double: the whole value must be a number that fits the
 * type, so a typo never turns into a silent zero, a truncated prefix
 * or a narrowed int. fatal() naming @p name otherwise.
 */
std::uint64_t parseKnobU64(const std::string &name,
                           const std::string &value);
int parseKnobInt(const std::string &name, const std::string &value);
double parseKnobDouble(const std::string &name,
                       const std::string &value);

/**
 * parseKnobInt() for a count that must lie in [1, @p max] (a node,
 * arrival or core count, an SMT level); fatal() naming @p name and
 * the range otherwise.
 */
int parseKnobCount(const std::string &name, const std::string &value,
                   int max = std::numeric_limits<int>::max());

/**
 * Parse a sampled-simulation window spec: "U:W:M" (fast-forward,
 * detailed-warm and detailed-measure cycles) or "off"/"0" to disable.
 * fatal() with the expected shape on anything else, including an
 * enabled spec with no detailed window (U > 0 needs W + M > 0).
 */
SampleWindows parseSampleWindows(const std::string &value);

/** Render windows as "U:W:M", or "off" when sampling is disabled. */
std::string renderSampleWindows(const SampleWindows &sample);

} // namespace sos

#endif // SOS_SIM_PARAMS_IO_HH
