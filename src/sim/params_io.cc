#include "params_io.hh"

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/logging.hh"

namespace sos {

namespace {

/** Typed accessor for one configurable field. */
struct Field
{
    const char *key;
    const char *description;
    std::function<void(SimConfig &, const std::string &)> set;
    std::function<std::string(const SimConfig &)> get;
};

// The typed parsers throw instead of fatal()ing so that
// tryApplyOverride can hand the message back to callers that have
// their own error context (the machine-config parser prepends
// file:line); applyOverride turns the exception back into fatal().
std::uint64_t
parseU64(const std::string &key, const std::string &value)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long parsed =
        std::strtoull(value.c_str(), &end, 10);
    // strtoull wraps negatives around; no unsigned value spells '-'.
    if (end == value.c_str() || *end != '\0' ||
        value.find('-') != std::string::npos) {
        throw std::invalid_argument("value for " + key +
                                    " is not an unsigned integer: '" +
                                    value + "'");
    }
    if (errno == ERANGE) {
        throw std::invalid_argument("value for " + key +
                                    " is out of range: '" + value + "'");
    }
    return parsed;
}

std::uint32_t
parseU32(const std::string &key, const std::string &value)
{
    const std::uint64_t parsed = parseU64(key, value);
    // Never narrow silently: 4294967296 bytes is not 0.
    if (parsed > std::numeric_limits<std::uint32_t>::max()) {
        throw std::invalid_argument("value for " + key +
                                    " is out of range for a 32-bit "
                                    "unsigned: '" + value + "'");
    }
    return static_cast<std::uint32_t>(parsed);
}

int
parseInt(const std::string &key, const std::string &value)
{
    char *end = nullptr;
    errno = 0;
    const long parsed = std::strtol(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0') {
        throw std::invalid_argument("value for " + key +
                                    " is not an integer: '" + value +
                                    "'");
    }
    // Never narrow silently: 4294967297 is not 1.
    if (errno == ERANGE || parsed < std::numeric_limits<int>::min() ||
        parsed > std::numeric_limits<int>::max()) {
        throw std::invalid_argument("value for " + key +
                                    " is out of range for an int: '" +
                                    value + "'");
    }
    return static_cast<int>(parsed);
}

double
parseDouble(const std::string &key, const std::string &value)
{
    char *end = nullptr;
    errno = 0;
    const double parsed = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
        !std::isfinite(parsed)) {
        throw std::invalid_argument("value for " + key +
                                    " is not a finite number: '" +
                                    value + "'");
    }
    return parsed;
}

bool
parseBool(const std::string &key, const std::string &value)
{
    if (value == "1" || value == "true" || value == "on")
        return true;
    if (value == "0" || value == "false" || value == "off")
        return false;
    throw std::invalid_argument("value for " + key +
                                " is not a boolean: '" + value + "'");
}

#define SOS_FIELD_U64(path, doc)                                            \
    Field{#path, doc,                                                       \
          [](SimConfig &c, const std::string &v) {                          \
              c.path = parseU64(#path, v);                                  \
          },                                                                \
          [](const SimConfig &c) { return std::to_string(c.path); }}

#define SOS_FIELD_U32(path, doc)                                            \
    Field{#path, doc,                                                       \
          [](SimConfig &c, const std::string &v) {                          \
              c.path = parseU32(#path, v);                                  \
          },                                                                \
          [](const SimConfig &c) { return std::to_string(c.path); }}

#define SOS_FIELD_INT(path, doc)                                            \
    Field{#path, doc,                                                       \
          [](SimConfig &c, const std::string &v) {                          \
              c.path = parseInt(#path, v);                                  \
          },                                                                \
          [](const SimConfig &c) { return std::to_string(c.path); }}

#define SOS_FIELD_BOOL(path, doc)                                           \
    Field{#path, doc,                                                       \
          [](SimConfig &c, const std::string &v) {                          \
              c.path = parseBool(#path, v);                                 \
          },                                                                \
          [](const SimConfig &c) {                                          \
              return std::string(c.path ? "1" : "0");                       \
          }}

const std::vector<Field> &
fields()
{
    static const std::vector<Field> table = {
        // Experiment harness.
        SOS_FIELD_U64(cycleScale, "paper cycles per simulated cycle"),
        SOS_FIELD_U64(symbiosSimCycles,
                      "symbios-phase length (simulated cycles)"),
        SOS_FIELD_U64(seed, "master seed"),
        SOS_FIELD_INT(sampleSchedules,
                      "schedules profiled per sample phase"),
        SOS_FIELD_INT(samplePeriods,
                      "schedule periods per profiled candidate"),
        Field{"jobs", "sweep worker threads (0 = SOS_JOBS/auto)",
              [](SimConfig &c, const std::string &v) {
                  const int jobs = parseInt("jobs", v);
                  // A negative count would silently mean "auto".
                  if (jobs < 0) {
                      throw std::invalid_argument(
                          "value for jobs must be >= 0 (0 = auto): '" +
                          v + "'");
                  }
                  c.jobs = jobs;
              },
              [](const SimConfig &c) { return std::to_string(c.jobs); }},
        SOS_FIELD_BOOL(snapshot,
                       "share sweep warmups via snapshot forks "
                       "(bit-identical; 0 = legacy path)"),
        SOS_FIELD_U64(traceSample,
                      "keep every Nth sample-phase trace group "
                      "(observability only)"),
        SOS_FIELD_U64(calibWarmupCycles, "calibration warmup"),
        SOS_FIELD_U64(calibMeasureCycles, "calibration measurement"),
        Field{"sample",
              "sampled simulation windows U:W:M (fast-forward:warm:"
              "measure simulated cycles; 'off' = full detail)",
              [](SimConfig &c, const std::string &v) {
                  c.sample = parseSampleWindows(v);
              },
              [](const SimConfig &c) {
                  return renderSampleWindows(c.sample);
              }},
        SOS_FIELD_INT(samplek,
                      "detail-simulate only the model's top-K sample "
                      "candidates plus uncertain ones (0 = screen off)"),
        Field{"model",
              "trained WS model file for the learned predictor/"
              "dispatcher and samplek ('' = none)",
              [](SimConfig &c, const std::string &v) {
                  c.modelPath = v;
              },
              [](const SimConfig &c) { return c.modelPath; }},
        // Core.
        SOS_FIELD_INT(core.fetchWidth, "instructions fetched per cycle"),
        SOS_FIELD_INT(core.fetchThreads, "threads fetched per cycle"),
        SOS_FIELD_INT(core.fetchQueueSize, "per-context fetch buffer"),
        SOS_FIELD_INT(core.frontendDelay, "fetch-to-dispatch stages"),
        SOS_FIELD_INT(core.mispredictRedirect,
                      "redirect cycles after branch resolution"),
        SOS_FIELD_INT(core.dispatchWidth, "dispatch width"),
        SOS_FIELD_INT(core.commitWidth, "commit width"),
        SOS_FIELD_INT(core.intQueueSize, "integer issue queue entries"),
        SOS_FIELD_INT(core.fpQueueSize, "FP issue queue entries"),
        SOS_FIELD_INT(core.intRenameRegs, "shared INT rename registers"),
        SOS_FIELD_INT(core.fpRenameRegs, "shared FP rename registers"),
        SOS_FIELD_INT(core.robSize, "shared reorder-buffer entries"),
        SOS_FIELD_INT(core.numIntUnits, "integer ALUs"),
        SOS_FIELD_INT(core.fpAddPipes, "FP add pipelines"),
        SOS_FIELD_INT(core.fpMulPipes, "FP multiply pipelines"),
        SOS_FIELD_INT(core.numLsPorts, "load/store ports"),
        SOS_FIELD_INT(core.intAluLat, "integer ALU latency"),
        SOS_FIELD_INT(core.intMultLat, "integer multiply latency"),
        SOS_FIELD_INT(core.fpAddLat, "FP add latency"),
        SOS_FIELD_INT(core.fpMultLat, "FP multiply latency"),
        SOS_FIELD_INT(core.fpDivLat, "FP divide latency"),
        SOS_FIELD_INT(core.l1dHitLat, "load-to-use latency on L1 hit"),
        SOS_FIELD_INT(core.predictorBits,
                      "log2 branch-predictor entries"),
        SOS_FIELD_BOOL(core.roundRobinFetch,
                       "round-robin fetch instead of ICOUNT"),
        // Memory.
        SOS_FIELD_U32(mem.l1i.sizeBytes, "L1I capacity (bytes)"),
        SOS_FIELD_U32(mem.l1i.assoc, "L1I associativity"),
        SOS_FIELD_U32(mem.l1d.sizeBytes, "L1D capacity (bytes)"),
        SOS_FIELD_U32(mem.l1d.assoc, "L1D associativity"),
        SOS_FIELD_U32(mem.l2.sizeBytes, "L2 capacity (bytes)"),
        SOS_FIELD_U32(mem.l2.assoc, "L2 associativity"),
        SOS_FIELD_U32(mem.l2HitLatency, "extra cycles for an L2 hit"),
        SOS_FIELD_U32(mem.memLatency, "extra cycles for an L2 miss"),
        SOS_FIELD_U32(mem.tlbMissLatency, "TLB miss penalty"),
        SOS_FIELD_BOOL(mem.prefetch.enabled, "stride prefetcher"),
        SOS_FIELD_INT(mem.prefetch.degree, "prefetch degree"),
        SOS_FIELD_INT(mem.prefetch.confidenceThreshold,
                      "stride confidence threshold"),
        SOS_FIELD_INT(mem.prefetch.tableBits,
                      "log2 prefetcher table entries"),
    };
    return table;
}

#undef SOS_FIELD_U64
#undef SOS_FIELD_U32
#undef SOS_FIELD_INT
#undef SOS_FIELD_BOOL

} // namespace

std::vector<ParamInfo>
configurableParams()
{
    const SimConfig defaults;
    std::vector<ParamInfo> out;
    out.reserve(fields().size());
    for (const Field &field : fields())
        out.push_back(
            {field.key, field.get(defaults), field.description});
    return out;
}

bool
tryApplyOverride(SimConfig &config, const std::string &key,
                 const std::string &value, std::string &error)
{
    for (const Field &field : fields()) {
        if (key == field.key) {
            try {
                field.set(config, value);
            } catch (const std::invalid_argument &err) {
                error = err.what();
                return false;
            }
            return true;
        }
    }
    error = "unknown configuration key '" + key +
            "' (see `sossim params` for the full list)";
    return false;
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

std::uint64_t
parseKnobU64(const std::string &name, const std::string &value)
{
    try {
        return parseU64(name, value);
    } catch (const std::invalid_argument &error) {
        fatal(error.what());
    }
}

int
parseKnobInt(const std::string &name, const std::string &value)
{
    try {
        return parseInt(name, value);
    } catch (const std::invalid_argument &error) {
        fatal(error.what());
    }
}

double
parseKnobDouble(const std::string &name, const std::string &value)
{
    try {
        return parseDouble(name, value);
    } catch (const std::invalid_argument &error) {
        fatal(error.what());
    }
}

void
applyOverrides(SimConfig &config,
               const std::vector<std::string> &assignments)
{
    for (const std::string &assignment : assignments)
        applyOverride(config, assignment);
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
    if (value == "off" || value == "0")
        return SampleWindows{};
    const std::size_t first = value.find(':');
    const std::size_t second =
        first == std::string::npos ? first : value.find(':', first + 1);
    if (first == std::string::npos || second == std::string::npos ||
        value.find(':', second + 1) != std::string::npos)
        fatal("value for sample must be U:W:M (fast-forward:warm:"
              "measure simulated cycles) or 'off', got '", value, "'");
    SampleWindows sample;
    try {
        sample.fastForward =
            parseU64("sample (U)", value.substr(0, first));
        sample.warm =
            parseU64("sample (W)", value.substr(first + 1,
                                                second - first - 1));
        sample.measure =
            parseU64("sample (M)", value.substr(second + 1));
    } catch (const std::invalid_argument &err) {
        fatal(err.what());
    }
    if (!sample.enabled()) {
        // 0:W:M is full detail in awkward clothing; make the caller
        // say what they mean.
        if (sample.detailed() > 0)
            fatal("sample=", value, " has no fast-forward window; "
                  "use 'off' for full detail");
        return SampleWindows{};
    }
    if (sample.measure == 0)
        fatal("sample=", value, " fast-forwards but never measures; "
              "the M window must be positive");
    return sample;
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
    std::vector<std::pair<std::string, std::string>> out;
    out.reserve(fields().size());
    for (const Field &field : fields()) {
        // The sweep worker count, the snapshot fast path and the trace
        // sampling stride are host execution/observability strategy,
        // not simulation configuration: results are bit-identical
        // across all of them, and the manifest must be too.
        if (std::string("jobs") == field.key ||
            std::string("snapshot") == field.key ||
            std::string("traceSample") == field.key)
            continue;
        // Sampling windows change what the counters mean, so they are
        // recorded -- but only when enabled, keeping pre-sampling
        // golden manifests byte-stable.
        if (std::string("sample") == field.key &&
            !config.sample.enabled())
            continue;
        // Same contract for the model knobs: recorded when active,
        // omitted when off so golden manifests stay byte-stable.
        if (std::string("samplek") == field.key && config.samplek == 0)
            continue;
        if (std::string("model") == field.key &&
            config.modelPath.empty())
            continue;
        out.emplace_back(field.key, field.get(config));
    }
    return out;
}

} // namespace sos
