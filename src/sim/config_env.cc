#include "config_env.hh"

#include <cstdlib>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "config/machine_config.hh"
#include "sim/params_io.hh"

namespace sos {

SimConfig
benchConfigFromEnv(std::uint64_t cycle_scale)
{
    SimConfig config = makeBenchConfig();
    config.cycleScale = cycle_scale;
    // Every knob with an environment alias (SOS_CYCLE_SCALE, SOS_SEED,
    // SOS_SAMPLE, SOS_TRACE_SAMPLE, SOS_MODEL), through its own parser.
    for (const ParamInfo &param : configurableParams()) {
        if (param.env.empty())
            continue;
        if (const char *value = std::getenv(param.env.c_str()))
            applyEnvValue(config, param, value);
    }
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
parseBenchArgs(int argc, char **argv, std::uint64_t cycle_scale)
{
    BenchOptions options;
    options.config = benchConfigFromEnv(cycle_scale);
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
    validateConfig(options.config);
    return options;
}

} // namespace sos
