#include "config_env.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "config/machine_config.hh"

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
            applyKnob(config, param.key, param.env, value);
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

namespace {

/** SOS_OUT / SOS_TRACE, which --out / --trace override. */
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

/** "--name PLACEHOLDER", as usage lines and errors show a row. */
std::string
spelling(const Flag &flag)
{
    if (flag.name.empty())
        return flag.placeholder;
    return flag.placeholder.empty() ? flag.name
                                    : flag.name + " " + flag.placeholder;
}

[[noreturn]] void
printUsage(const std::string &tool, const std::vector<Flag> &flags,
           const std::string &footer)
{
    std::string synopsis;
    for (const Flag &flag : flags) {
        if (flag.name.empty())
            synopsis += " " + flag.placeholder;
    }
    std::printf("usage: %s%s [options]\n\noptions:\n", tool.c_str(),
                synopsis.c_str());
    const auto row = [](const std::string &left, const std::string &help) {
        std::printf("  %-22s %s\n", left.c_str(), help.c_str());
    };
    for (const Flag &flag : flags)
        row(spelling(flag), flag.help);
    row("--help", "show this message and exit");
    std::fputs(footer.c_str(), stdout);
    std::exit(0);
}

} // namespace

void
parseFlags(const std::string &tool, const std::vector<Flag> &flags,
           int argc, char **argv, const std::string &footer)
{
    auto operand =
        std::find_if(flags.begin(), flags.end(),
                     [](const Flag &flag) { return flag.name.empty(); });
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            printUsage(tool, flags, footer);
        if (arg.empty() || arg.front() != '-') {
            // The operand row takes one operand.
            if (operand == flags.end())
                fatal("unexpected argument '", arg, "' (see ", tool,
                      " --help)");
            operand->set(arg);
            operand = flags.end();
            continue;
        }
        const auto flag =
            std::find_if(flags.begin(), flags.end(),
                         [&](const Flag &row) { return row.name == arg; });
        if (flag == flags.end()) {
            std::string accepted;
            for (const Flag &row : flags) {
                if (!row.name.empty())
                    accepted += (accepted.empty() ? "" : ", ") +
                                spelling(row);
            }
            fatal("unknown argument '", arg, "' (", tool,
                  " does not accept it; ",
                  accepted.empty() ? "it takes no flags"
                                   : "its flags are " + accepted,
                  ")");
        }
        if (i + 1 >= argc)
            fatal(arg, " needs an argument");
        flag->set(argv[++i]);
    }
}

BenchOptions
parseBenchArgs(const CommandLine &cli, int argc, char **argv)
{
    BenchOptions options;
    options.out = outputPathsFromEnv();
    std::vector<std::string> machines;
    // --set, --jobs and --model, applied in command-line order once
    // every machine file has loaded.
    std::vector<std::function<void(SimConfig &)>> overrides;
    const auto knob = [&](const char *key, const char *name) {
        return [&overrides, key, name](const std::string &value) {
            overrides.push_back([key, name, value](SimConfig &config) {
                applyKnob(config, key, name, value);
            });
        };
    };
    std::vector<Flag> flags = {
        {"--set", "key=value",
         "configuration override (repeatable; see `sossim params`)",
         [&](const std::string &value) {
             overrides.push_back([value](SimConfig &config) {
                 applyOverride(config, value);
             });
         }},
        {"--jobs", "N", "host worker threads (env SOS_JOBS)",
         knob("jobs", "--jobs")},
        {"--machine-config", "FILE",
         "machine description file, loaded before any --set (env "
         "SOS_MACHINE_CONFIG)",
         [&](const std::string &value) { machines.push_back(value); }},
        {"--model", "FILE", "trained WS model file (env SOS_MODEL)",
         knob("model", "--model")},
        Flag::into("--out", "FILE",
                   "write the JSON run manifest (env SOS_OUT)",
                   options.out.manifest),
        Flag::into("--trace", "FILE",
                   "write the JSONL decision trace (env SOS_TRACE)",
                   options.out.trace),
        Flag::into("--bench", "FILE",
                   "write the sos.bench host-timing report",
                   options.out.bench),
    };
    flags.insert(flags.end(), cli.flags.begin(), cli.flags.end());

    std::string footer = "\nenvironment:";
    for (const ParamInfo &param : configurableParams()) {
        if (!param.env.empty())
            footer += " " + param.env;
    }
    footer += " SOS_JOBS SOS_MACHINE_CONFIG SOS_OUT SOS_TRACE\n";
    parseFlags(cli.tool, flags, argc, argv, footer);

    options.config = benchConfigFromEnv(cli.cycleScale);
    if (cli.nodeMachines != nullptr && machines.size() > 1)
        *cli.nodeMachines = machines;
    else {
        for (const std::string &machine : machines)
            applyMachineConfig(options.config, machine);
    }
    for (const auto &apply : overrides)
        apply(options.config);
    validateConfig(options.config);
    return options;
}

} // namespace sos
