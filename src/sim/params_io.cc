#include "params_io.hh"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "common/logging.hh"
#include "cpu/core_params.hh"
#include "mem/cache_hierarchy.hh"

namespace sos {

namespace {

/** When a knob enters a run manifest's config section. */
enum class Manifest
{
    Always,
    Never,   ///< host strategy: results are identical for every value
    WhenSet, ///< only away from its default (keeps goldens valid)
};

/** The values of an integer knob that a run survives. */
struct Range
{
    std::uint64_t lo, hi;
    std::string rule; ///< the range as an error message states it
};

/** A knob's optional columns. */
struct Traits
{
    const char *env = nullptr; ///< environment alias
    Manifest manifest = Manifest::Always;
    std::optional<Range> range = std::nullopt;
};

/** One knob: parser, range, env alias, manifest policy, params row. */
struct Field
{
    const char *key;
    const char *description;
    Traits traits;
    /** Parse a value into the config; errors name the given name. */
    std::function<void(SimConfig &, const std::string &name,
                       const std::string &value)>
        set;
    std::function<std::string(const SimConfig &)> get;
};

// The parsers throw so that tryApplyOverride can hand the message to
// callers with their own context (the machine-config parser prepends
// file:line); the public entry points fatal() through orFatal().
template <typename T>
T
parseNumber(const std::string &key, const std::string &value)
{
    constexpr bool real = std::is_floating_point_v<T>;
    const char *kind = real                   ? "a finite number"
                       : std::is_signed_v<T> ? "an integer"
                                             : "an unsigned integer";
    T parsed{};
    const char *last = value.data() + value.size();
    const auto [end, error] = std::from_chars(value.data(), last, parsed);
    if (end != last || error == std::errc::invalid_argument ||
        (real && (error != std::errc() || !std::isfinite(parsed)))) {
        throw std::invalid_argument("value for " + key + " is not " +
                                    kind + ": '" + value + "'");
    }
    // Never narrow or saturate silently: 4294967297 is not 1.
    if (error == std::errc::result_out_of_range) {
        const char *type = std::is_same_v<T, int> ? " for an int"
                           : std::is_same_v<T, std::uint32_t>
                               ? " for a 32-bit unsigned"
                               : "";
        throw std::invalid_argument("value for " + key +
                                    " is out of range" + type + ": '" +
                                    value + "'");
    }
    return parsed;
}

SampleWindows
parseWindows(const std::string &key, const std::string &value)
{
    if (value == "off" || value == "0")
        return SampleWindows{};
    const std::size_t first = value.find(':');
    const std::size_t second =
        first == std::string::npos ? first : value.find(':', first + 1);
    if (first == std::string::npos || second == std::string::npos ||
        value.find(':', second + 1) != std::string::npos) {
        throw std::invalid_argument(
            "value for " + key +
            " must be U:W:M (fast-forward:warm:measure simulated "
            "cycles) or 'off', got '" + value + "'");
    }
    SampleWindows sample;
    sample.fastForward =
        parseNumber<std::uint64_t>(key + " (U)", value.substr(0, first));
    sample.warm = parseNumber<std::uint64_t>(
        key + " (W)", value.substr(first + 1, second - first - 1));
    sample.measure =
        parseNumber<std::uint64_t>(key + " (M)", value.substr(second + 1));
    if (!sample.enabled()) {
        // 0:W:M is full detail in awkward clothing; make the caller
        // say what they mean.
        if (sample.detailed() > 0) {
            throw std::invalid_argument(
                key + "=" + value +
                " has no fast-forward window; use 'off' for full "
                "detail");
        }
        return SampleWindows{};
    }
    if (sample.measure == 0) {
        throw std::invalid_argument(
            key + "=" + value +
            " fast-forwards but never measures; the M window must be "
            "positive");
    }
    return sample;
}

/** Parse @p value as the type of the field it sets. */
template <typename T>
T
parseAs(const std::string &key, const std::string &value)
{
    if constexpr (std::is_same_v<T, bool>) {
        if (value == "1" || value == "true" || value == "on")
            return true;
        if (value == "0" || value == "false" || value == "off")
            return false;
        throw std::invalid_argument("value for " + key +
                                    " is not a boolean: '" + value + "'");
    } else if constexpr (std::is_same_v<T, SampleWindows>) {
        return parseWindows(key, value);
    } else if constexpr (std::is_same_v<T, std::string>) {
        return value;
    } else {
        return parseNumber<T>(key, value);
    }
}

template <typename T>
std::string
render(const T &value)
{
    if constexpr (std::is_same_v<T, SampleWindows>) {
        return renderSampleWindows(value);
    } else {
        std::ostringstream os; // bools render as 1/0
        os << value;
        return os.str();
    }
}

/**
 * A table row for the field @p access reaches; the field's type picks
 * its parser and rendering (a range binds integer fields only).
 */
template <typename Access>
Field
knob(const char *key, Access access, const char *description,
     Traits traits = {})
{
    using T = std::remove_cvref_t<decltype(access(
        std::declval<SimConfig &>()))>;
    const std::optional<Range> range = traits.range;
    return Field{
        key, description, std::move(traits),
        [access, range](SimConfig &c, const std::string &name,
                        const std::string &value) {
            const auto outside = [&] {
                return std::invalid_argument("value for " + name +
                                             " must be " + range->rule +
                                             ": '" + value + "'");
            };
            // A negative count breaks the range, not the spelling.
            if (range && value.size() > 1 && value.front() == '-' &&
                value.find_first_not_of("0123456789", 1) ==
                    std::string::npos)
                throw outside();
            const T parsed = parseAs<T>(name, value);
            if constexpr (std::is_integral_v<T> &&
                          !std::is_same_v<T, bool>) {
                if (range && (std::cmp_less(parsed, range->lo) ||
                              std::cmp_greater(parsed, range->hi)))
                    throw outside();
            }
            access(c) = parsed;
        },
        [access](const SimConfig &c) { return render(access(c)); }};
}

/** The key and accessor of the SimConfig field at @p path. */
#define SOS_KNOB(path)                                                      \
    #path, [](auto &c) -> auto & { return c.path; }

constexpr std::uint64_t MaxInt = std::numeric_limits<int>::max();
constexpr std::uint64_t MaxU64 = std::numeric_limits<std::uint64_t>::max();

const std::vector<Field> &
fields()
{
    static const std::vector<Field> table = {
        // Experiment harness.
        knob(SOS_KNOB(cycleScale), "paper cycles per simulated cycle",
             {.env = "SOS_CYCLE_SCALE",
              // Beyond the little timeslice a scaled quantum vanishes.
              .range = Range{1, SimConfig::paperLittleTimeslice,
                             "a positive integer <= " +
                                 std::to_string(
                                     SimConfig::paperLittleTimeslice)}}),
        knob(SOS_KNOB(symbiosSimCycles),
             "symbios-phase length (simulated cycles)",
             {.range = Range{1, MaxU64, "a positive integer"}}),
        knob(SOS_KNOB(seed), "master seed", {.env = "SOS_SEED"}),
        knob(SOS_KNOB(sampleSchedules),
             "schedules profiled per sample phase",
             {.range = Range{1, MaxInt, "a positive integer"}}),
        knob(SOS_KNOB(samplePeriods),
             "schedule periods per profiled candidate",
             {.range = Range{1, MaxInt, "a positive integer"}}),
        knob(SOS_KNOB(jobs), "sweep worker threads (0 = SOS_JOBS/auto)",
             {.manifest = Manifest::Never,
              // A negative count would silently mean "auto".
              .range = Range{0, MaxInt, ">= 0 (0 = auto)"}}),
        knob(SOS_KNOB(traceSample),
             "keep every Nth sample-phase trace group "
             "(observability only)",
             {.env = "SOS_TRACE_SAMPLE",
              .manifest = Manifest::Never,
              .range = Range{1, MaxU64, "a positive integer"}}),
        knob(SOS_KNOB(calibWarmupCycles), "calibration warmup"),
        knob(SOS_KNOB(calibMeasureCycles), "calibration measurement",
             {.range = Range{1, MaxU64, "a positive integer"}}),
        knob(SOS_KNOB(sample),
             "sampled simulation windows U:W:M (fast-forward:warm:"
             "measure simulated cycles; 'off' = full detail)",
             {.env = "SOS_SAMPLE", .manifest = Manifest::WhenSet}),
        knob(SOS_KNOB(samplek),
             "detail-simulate only the model's top-K sample "
             "candidates plus uncertain ones (0 = screen off)",
             {.manifest = Manifest::WhenSet}),
        knob("model", [](auto &c) -> auto & { return c.modelPath; },
             "trained WS model file for the learned predictor/"
             "dispatcher and samplek ('' = none)",
             {.env = "SOS_MODEL", .manifest = Manifest::WhenSet}),
        // Core.
        knob(SOS_KNOB(core.fetchWidth), "instructions fetched per cycle"),
        knob(SOS_KNOB(core.fetchThreads), "threads fetched per cycle"),
        knob(SOS_KNOB(core.fetchQueueSize), "per-context fetch buffer"),
        knob(SOS_KNOB(core.frontendDelay), "fetch-to-dispatch stages"),
        knob(SOS_KNOB(core.mispredictRedirect),
             "redirect cycles after branch resolution"),
        knob(SOS_KNOB(core.dispatchWidth), "dispatch width"),
        knob(SOS_KNOB(core.commitWidth), "commit width"),
        knob(SOS_KNOB(core.intQueueSize), "integer issue queue entries"),
        knob(SOS_KNOB(core.fpQueueSize), "FP issue queue entries"),
        knob(SOS_KNOB(core.intRenameRegs), "shared INT rename registers"),
        knob(SOS_KNOB(core.fpRenameRegs), "shared FP rename registers"),
        knob(SOS_KNOB(core.robSize), "shared reorder-buffer entries"),
        knob(SOS_KNOB(core.numIntUnits), "integer ALUs"),
        knob(SOS_KNOB(core.fpAddPipes), "FP add pipelines"),
        knob(SOS_KNOB(core.fpMulPipes), "FP multiply pipelines"),
        knob(SOS_KNOB(core.numLsPorts), "load/store ports"),
        knob(SOS_KNOB(core.intAluLat), "integer ALU latency"),
        knob(SOS_KNOB(core.intMultLat), "integer multiply latency"),
        knob(SOS_KNOB(core.fpAddLat), "FP add latency"),
        knob(SOS_KNOB(core.fpMultLat), "FP multiply latency"),
        knob(SOS_KNOB(core.fpDivLat), "FP divide latency"),
        knob(SOS_KNOB(core.l1dHitLat), "load-to-use latency on L1 hit"),
        knob(SOS_KNOB(core.predictorBits), "log2 branch-predictor entries"),
        knob(SOS_KNOB(core.roundRobinFetch),
             "round-robin fetch instead of ICOUNT"),
        // Memory.
        knob(SOS_KNOB(mem.l1i.sizeBytes), "L1I capacity (bytes)"),
        knob(SOS_KNOB(mem.l1i.assoc), "L1I associativity"),
        knob(SOS_KNOB(mem.l1d.sizeBytes), "L1D capacity (bytes)"),
        knob(SOS_KNOB(mem.l1d.assoc), "L1D associativity"),
        knob(SOS_KNOB(mem.l2.sizeBytes), "L2 capacity (bytes)"),
        knob(SOS_KNOB(mem.l2.assoc), "L2 associativity"),
        knob(SOS_KNOB(mem.l2HitLatency), "extra cycles for an L2 hit"),
        knob(SOS_KNOB(mem.memLatency), "extra cycles for an L2 miss"),
        knob(SOS_KNOB(mem.tlbMissLatency), "TLB miss penalty"),
        knob(SOS_KNOB(mem.prefetch.enabled), "stride prefetcher"),
        knob(SOS_KNOB(mem.prefetch.degree), "prefetch degree"),
        knob(SOS_KNOB(mem.prefetch.confidenceThreshold),
             "stride confidence threshold"),
        knob(SOS_KNOB(mem.prefetch.tableBits),
             "log2 prefetcher table entries"),
    };
    return table;
}

#undef SOS_KNOB

/** @p parse's result; fatal() with @p prefix and its message instead. */
template <typename Parse>
auto
orFatal(Parse parse, const char *prefix = "")
{
    try {
        return parse();
    } catch (const std::invalid_argument &error) {
        fatal(prefix, error.what());
    }
}

const Field &
findField(const std::string &key)
{
    for (const Field &field : fields()) {
        if (key == field.key)
            return field;
    }
    throw std::invalid_argument("unknown configuration key '" + key +
                                "' (see `sossim params` for the full "
                                "list)");
}

} // namespace

std::vector<ParamInfo>
configurableParams()
{
    const SimConfig defaults;
    std::vector<ParamInfo> out;
    for (const Field &field : fields()) {
        out.push_back({field.key, field.traits.env ? field.traits.env : "",
                       field.get(defaults), field.description});
    }
    return out;
}

bool
tryApplyOverride(SimConfig &config, const std::string &key,
                 const std::string &value, std::string &error)
{
    try {
        findField(key).set(config, key, value);
        return true;
    } catch (const std::invalid_argument &err) {
        error = err.what();
        return false;
    }
}

void
applyOverride(SimConfig &config, const std::string &assignment)
{
    const std::size_t eq = assignment.find('=');
    if (eq == std::string::npos || eq == 0)
        fatal("override must look like key=value, got '", assignment,
              "'");
    std::string error;
    if (!tryApplyOverride(config, assignment.substr(0, eq),
                          assignment.substr(eq + 1), error)) {
        fatal(error);
    }
}

void
applyKnob(SimConfig &config, const std::string &key,
          const std::string &name, const std::string &value)
{
    orFatal([&] { findField(key).set(config, name, value); });
}

void
validateConfig(const SimConfig &config)
{
    orFatal([&] {
        validateCoreParams(config.core);
        validateMemParams(config.mem);
    }, "invalid configuration: ");
}

std::uint64_t
parseKnobU64(const std::string &name, const std::string &value)
{
    return orFatal([&] { return parseNumber<std::uint64_t>(name, value); });
}

int
parseKnobInt(const std::string &name, const std::string &value)
{
    return orFatal([&] { return parseNumber<int>(name, value); });
}

double
parseKnobDouble(const std::string &name, const std::string &value)
{
    return orFatal([&] { return parseNumber<double>(name, value); });
}

std::string
renderConfig(const SimConfig &config)
{
    std::ostringstream os;
    for (const Field &field : fields())
        os << field.key << "=" << field.get(config) << "\n";
    return os.str();
}

SampleWindows
parseSampleWindows(const std::string &value)
{
    return orFatal([&] { return parseWindows("sample", value); });
}

std::string
renderSampleWindows(const SampleWindows &sample)
{
    if (!sample.enabled())
        return "off";
    std::ostringstream os;
    os << sample.fastForward << ":" << sample.warm << ":"
       << sample.measure;
    return os.str();
}

std::vector<std::pair<std::string, std::string>>
configPairs(const SimConfig &config)
{
    const SimConfig defaults;
    std::vector<std::pair<std::string, std::string>> out;
    for (const Field &field : fields()) {
        if (field.traits.manifest == Manifest::Never)
            continue;
        std::string value = field.get(config);
        if (field.traits.manifest == Manifest::WhenSet &&
            value == field.get(defaults))
            continue;
        out.emplace_back(field.key, std::move(value));
    }
    return out;
}

} // namespace sos
