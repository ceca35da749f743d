#include "config_env.hh"

#include <cstdlib>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "config/machine_config.hh"
#include "sim/params_io.hh"

namespace sos {

SimConfig
benchConfigFromEnv()
{
    SimConfig config = makeBenchConfig();
    if (const char *scale = std::getenv("SOS_CYCLE_SCALE")) {
        const int value = parseKnobInt("SOS_CYCLE_SCALE", scale);
        if (value <= 0)
            fatal("SOS_CYCLE_SCALE must be a positive integer");
        config.cycleScale = static_cast<std::uint64_t>(value);
    }
    if (const char *seed = std::getenv("SOS_SEED"))
        config.seed = parseKnobU64("SOS_SEED", seed);
    // Warm-state sharing for sweeps; semantics-preserving, so this is
    // an escape hatch rather than a tuning knob.
    if (const char *snapshot = std::getenv("SOS_SNAPSHOT"))
        applyOverride(config, std::string("snapshot=") + snapshot);
    // Sampled-simulation windows (U:W:M or 'off'); validated up front
    // so a typo dies here rather than deep inside a sweep.
    if (const char *sample = std::getenv("SOS_SAMPLE"))
        applyOverride(config, std::string("sample=") + sample);
    // Decision-trace sampling stride; observability only, never in
    // configPairs (long cluster runs keep traces bounded with it).
    if (const char *stride = std::getenv("SOS_TRACE_SAMPLE"))
        applyOverride(config, std::string("traceSample=") + stride);
    // Trained WS model for the learned predictor/dispatcher and the
    // samplek screen (a file written by sostrain).
    if (const char *model = std::getenv("SOS_MODEL"))
        config.modelPath = model;
    // Machine description file: core count, per-core params, shared
    // L2 geometry. Parsed (and validated) before any --set flag so
    // explicit CLI overrides still win over the file's defaults.
    if (const char *machine = std::getenv("SOS_MACHINE_CONFIG"))
        applyMachineConfig(config, machine);
    // Sweep worker threads; resolveJobs() validates the value and
    // falls back to the hardware concurrency when unset.
    config.jobs = resolveJobs(0);
    return config;
}

OutputPaths
outputPathsFromEnv()
{
    OutputPaths out;
    if (const char *path = std::getenv("SOS_OUT"))
        out.manifest = path;
    if (const char *path = std::getenv("SOS_TRACE"))
        out.trace = path;
    return out;
}

BenchOptions
parseBenchArgs(int argc, char **argv)
{
    BenchOptions options;
    options.config = benchConfigFromEnv();
    options.out = outputPathsFromEnv();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto valueOf = [&](const char *flag) -> std::string {
            if (i + 1 >= argc)
                fatal(flag, " needs an argument");
            return argv[++i];
        };
        if (arg == "--set")
            applyOverride(options.config, valueOf("--set"));
        else if (arg == "--jobs")
            applyOverride(options.config, "jobs=" + valueOf("--jobs"));
        else if (arg == "--machine-config")
            applyMachineConfig(options.config,
                               valueOf("--machine-config"));
        else if (arg == "--model")
            options.config.modelPath = valueOf("--model");
        else if (arg == "--out")
            options.out.manifest = valueOf("--out");
        else if (arg == "--trace")
            options.out.trace = valueOf("--trace");
        else if (arg == "--bench")
            options.out.bench = valueOf("--bench");
        else
            fatal("unknown argument '", arg,
                  "' (bench harnesses accept --set key=value, "
                  "--jobs N, --machine-config FILE, --model FILE, "
                  "--out FILE, --trace FILE, --bench FILE)");
    }
    return options;
}

} // namespace sos
