/** @file Unit tests for textual configuration overrides. */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/config_env.hh"
#include "sim/params_io.hh"

namespace sos {
namespace {

/**
 * Run @p binary with @p args under the extra environment assignments
 * @p env: (exit status, stdout + stderr).
 */
std::pair<int, std::string>
runTool(const std::string &binary, const std::string &args,
        const std::string &env = "")
{
    const std::string command =
        "env " + env + " " + binary + " " + args + " 2>&1";
    FILE *pipe = ::popen(command.c_str(), "r");
    if (pipe == nullptr)
        return {-1, "cannot run " + command};
    std::string output;
    char buffer[256];
    while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr)
        output += buffer;
    const int status = ::pclose(pipe);
    return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, output};
}

/** parseBenchArgs over the flags @p args of a tool named "t". */
BenchOptions
parseArgs(std::vector<std::string> args)
{
    args.insert(args.begin(), "t");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return parseBenchArgs({.tool = "t"}, static_cast<int>(argv.size()),
                          argv.data());
}

/** Run the sossim CLI (see runTool). */
std::pair<int, std::string>
runSossim(const std::string &args, const std::string &env = "")
{
    return runTool(SOS_SOSSIM, args, env);
}

TEST(ParamsIo, SetsHarnessFields)
{
    SimConfig config;
    applyOverride(config, "cycleScale=250");
    applyOverride(config, "sampleSchedules=5");
    applyOverride(config, "seed=777");
    EXPECT_EQ(config.cycleScale, 250u);
    EXPECT_EQ(config.sampleSchedules, 5);
    EXPECT_EQ(config.seed, 777u);
}

TEST(ParamsIo, SetsCoreFields)
{
    SimConfig config;
    applyOverride(config, "core.intQueueSize=32");
    applyOverride(config, "core.roundRobinFetch=true");
    applyOverride(config, "core.fpDivLat=20");
    EXPECT_EQ(config.core.intQueueSize, 32);
    EXPECT_TRUE(config.core.roundRobinFetch);
    EXPECT_EQ(config.core.fpDivLat, 20);
}

TEST(ParamsIo, SetsMemFields)
{
    SimConfig config;
    applyOverride(config, "mem.l2.sizeBytes=4194304");
    applyOverride(config, "mem.prefetch.enabled=on");
    applyOverride(config, "mem.memLatency=120");
    EXPECT_EQ(config.mem.l2.sizeBytes, 4194304u);
    EXPECT_TRUE(config.mem.prefetch.enabled);
    EXPECT_EQ(config.mem.memLatency, 120u);
}

TEST(ParamsIo, BooleanSpellings)
{
    SimConfig config;
    for (const char *yes : {"mem.prefetch.enabled=1",
                            "mem.prefetch.enabled=true",
                            "mem.prefetch.enabled=on"}) {
        config.mem.prefetch.enabled = false;
        applyOverride(config, yes);
        EXPECT_TRUE(config.mem.prefetch.enabled) << yes;
    }
    for (const char *no : {"mem.prefetch.enabled=0",
                           "mem.prefetch.enabled=false",
                           "mem.prefetch.enabled=off"}) {
        config.mem.prefetch.enabled = true;
        applyOverride(config, no);
        EXPECT_FALSE(config.mem.prefetch.enabled) << no;
    }
}

TEST(ParamsIo, AppliesInOrder)
{
    // --set and --jobs apply in command-line order: the last one wins.
    const SimConfig config =
        parseArgs({"--set", "cycleScale=10", "--set", "cycleScale=20",
                   "--jobs", "3", "--set", "jobs=2"})
            .config;
    EXPECT_EQ(config.cycleScale, 20u);
    EXPECT_EQ(config.jobs, 2);
}

TEST(ParamsIo, UnknownKeyIsFatal)
{
    SimConfig config;
    EXPECT_DEATH(applyOverride(config, "core.magic=1"),
                 "unknown configuration key");
}

TEST(ParamsIo, MalformedAssignmentIsFatal)
{
    SimConfig config;
    EXPECT_DEATH(applyOverride(config, "cycleScale"), "key=value");
    EXPECT_DEATH(applyOverride(config, "=5"), "key=value");
}

TEST(ParamsIo, BadValueIsFatal)
{
    SimConfig config;
    EXPECT_DEATH(applyOverride(config, "cycleScale=ten"),
                 "not an unsigned integer");
    EXPECT_DEATH(applyOverride(config, "mem.prefetch.enabled=maybe"),
                 "not a boolean");
}

TEST(ParamsIo, JobsRejectsNegativeAndOutOfRangeCounts)
{
    SimConfig config;
    applyOverride(config, "jobs=3");
    EXPECT_EQ(config.jobs, 3);
    applyOverride(config, "jobs=0");
    EXPECT_EQ(config.jobs, 0);
    // -3 would otherwise silently mean "auto".
    EXPECT_DEATH(applyOverride(config, "jobs=-3"),
                 "value for jobs must be >= 0 \\(0 = auto\\): '-3'");
    EXPECT_DEATH(applyOverride(config, "jobs=4294967297"),
                 "value for jobs is out of range for an int: "
                 "'4294967297'");
}

TEST(ParamsIo, U32FieldsRejectValuesAboveTheirWidth)
{
    // A value a 32-bit field cannot hold is an error, never a wrapped
    // number: 2^32 bytes must not run as 0, nor 2^32 + 8 ways as 8.
    SimConfig config;
    applyOverride(config, "mem.l1d.sizeBytes=4294967295");
    EXPECT_EQ(config.mem.l1d.sizeBytes, 4294967295u);
    EXPECT_DEATH(applyOverride(config, "mem.l1d.sizeBytes=4294967296"),
                 "mem.l1d.sizeBytes is out of range for a 32-bit "
                 "unsigned: '4294967296'");
    EXPECT_DEATH(applyOverride(config, "mem.l2.assoc=4294967304"),
                 "mem.l2.assoc is out of range");

    // The non-fatal path (machine configs) names the same error and
    // leaves the field untouched.
    std::string error;
    EXPECT_FALSE(
        tryApplyOverride(config, "mem.l2.assoc", "4294967304", error));
    EXPECT_NE(error.find("mem.l2.assoc is out of range"),
              std::string::npos)
        << error;
    EXPECT_EQ(config.mem.l2.assoc, SimConfig().mem.l2.assoc);
}

TEST(ParamsIo, CatalogueCoversRoundTrip)
{
    // Every advertised key must accept its own rendered default.
    SimConfig config;
    for (const ParamInfo &info : configurableParams())
        applyOverride(config, info.key + "=" + info.currentValue);
    // And the render must list every key exactly once.
    const std::string rendered = renderConfig(config);
    for (const ParamInfo &info : configurableParams()) {
        const std::string line = info.key + "=";
        EXPECT_NE(rendered.find(line), std::string::npos) << info.key;
    }
}

TEST(ParamsIo, RenderReflectsOverrides)
{
    SimConfig config;
    applyOverride(config, "core.numLsPorts=3");
    EXPECT_NE(renderConfig(config).find("core.numLsPorts=3"),
              std::string::npos);
}

TEST(ParamsIo, KnobParsersAcceptWholeNumbers)
{
    EXPECT_EQ(parseKnobU64("SOS_SEED", "12345"), 12345u);
    EXPECT_EQ(parseKnobU64("SOS_CLUSTER_MEAN_JOB", "30000000"),
              30000000u);
    EXPECT_EQ(parseKnobInt("SOS_CLUSTER_NODES", "4"), 4);
    EXPECT_EQ(parseKnobInt("SOS_CLUSTER_NODES", "-2"), -2);
}

TEST(ParamsIo, KnobParsersNameTheKnob)
{
    // A typo is an error naming the knob, never a silent zero or a
    // truncated prefix.
    EXPECT_DEATH(parseKnobU64("SOS_SEED", "12x"),
                 "SOS_SEED is not an unsigned integer: '12x'");
    EXPECT_DEATH(parseKnobU64("SOS_CLUSTER_JOBS", "1e3"),
                 "SOS_CLUSTER_JOBS is not an unsigned integer");
    EXPECT_DEATH(parseKnobU64("SOS_CLUSTER_MEAN_JOB", "-5"),
                 "SOS_CLUSTER_MEAN_JOB is not an unsigned integer");
    EXPECT_DEATH(parseKnobU64("SOS_CLUSTER_JOBS", ""),
                 "SOS_CLUSTER_JOBS is not an unsigned integer");
    EXPECT_DEATH(parseKnobInt("SOS_CLUSTER_NODES", "four"),
                 "SOS_CLUSTER_NODES is not an integer");
    EXPECT_DEATH(parseKnobInt("SOS_CLUSTER_NODES", "2 nodes"),
                 "SOS_CLUSTER_NODES is not an integer");
}

TEST(ParamsIo, KnobParsersRejectOutOfRangeValues)
{
    // A value the type cannot hold is an error, never a narrowed or
    // saturated number: 4294967297 nodes must not run as 1.
    EXPECT_EQ(parseKnobInt("SOS_CLUSTER_NODES", "2147483647"),
              2147483647);
    EXPECT_DEATH(parseKnobInt("SOS_CLUSTER_NODES", "4294967297"),
                 "SOS_CLUSTER_NODES is out of range for an int: "
                 "'4294967297'");
    EXPECT_DEATH(parseKnobInt("SOS_CLUSTER_NODES", "-2147483649"),
                 "SOS_CLUSTER_NODES is out of range for an int");
    EXPECT_DEATH(parseKnobU64("SOS_SEED", "18446744073709551616"),
                 "SOS_SEED is out of range");
}

TEST(ParamsIo, DoubleKnobParserAcceptsFiniteNumbersOnly)
{
    EXPECT_DOUBLE_EQ(parseKnobDouble("--classes weight", "0.5"), 0.5);
    EXPECT_DOUBLE_EQ(parseKnobDouble("--classes weight", "1e3"), 1000.0);
    EXPECT_DOUBLE_EQ(parseKnobDouble("--classes weight", "-2"), -2.0);
    for (const char *bad : {"", "1x", "one", "nan", "inf", "1e999"}) {
        EXPECT_DEATH(parseKnobDouble("--classes weight", bad),
                     "--classes weight is not a finite number")
            << bad;
    }
}

TEST(ParamsIo, SossimNumericFlagsGiveNamedErrors)
{
    // Every numeric flag and every hostile knob value fails with exit
    // 1 and an error naming the flag or key, before any simulation
    // runs -- never an assertion panic or an uncaught exception (exit
    // 134), and never a silently truncated value. A knob's range, or
    // the core/memory validation once every channel applied, catches
    // the values that used to crash mid-run.
    const std::pair<const char *, const char *> cases[] = {
        {"cluster --nodes abc",
         "value for --nodes is not an integer: 'abc'"},
        {"cluster --nodes 4x", "value for --nodes is not an integer: '4x'"},
        {"cluster --arrivals 1e3", "--arrivals is not an integer"},
        {"cluster --level x", "--level is not an integer"},
        {"cluster --cores 1.5", "--cores is not an integer"},
        {"cluster --epoch 8s", "--epoch is not an integer"},
        {"cluster --mean-job -5", "--mean-job is not an unsigned integer"},
        {"cluster --mean-interarrival 4e7",
         "--mean-interarrival is not an unsigned integer"},
        {"cluster --classes a:x:1",
         "--classes weight of a is not a finite number: 'x'"},
        {"cluster --classes a:1:inf",
         "--classes sizeFactor of a is not a finite number: 'inf'"},
        {"open --level x", "value for --level is not an integer: 'x'"},
        {"open --jobs 24k", "--jobs is not an integer"},
        {"open --cores 4294967297", "--cores is out of range for an int"},
        {"hier --level 2x", "--level is not an integer"},
        {"machine --cores two", "--cores is not an integer"},
        {"run 'Jsb(4,2,2)' --set cycleScale=0",
         "value for cycleScale must be a positive integer"},
        {"run 'Jsb(4,2,2)' --set sampleSchedules=0",
         "value for sampleSchedules must be a positive integer"},
        {"run 'Jsb(4,2,2)' --set sampleSchedules=-3",
         "value for sampleSchedules must be a positive integer"},
        {"run 'Jsb(4,2,2)' --set calibMeasureCycles=0",
         "value for calibMeasureCycles must be a positive integer"},
        {"run 'Jsb(4,2,2)' --set traceSample=0",
         "value for traceSample must be a positive integer"},
        {"run 'Jsb(4,2,2)' --set mem.prefetch.tableBits=-1",
         "prefetch.tableBits must be in [4, 20], got -1"},
        {"run 'Jsb(4,2,2)' --set core.fetchWidth=0",
         "fetchWidth must be >= 1, got 0"},
        {"run 'Jsb(4,2,2)' --set core.robSize=0",
         "robSize must be >= 1, got 0"},
        {"run 'Jsb(4,2,2)' --set mem.l1d.assoc=0",
         "cache 'l1d': assoc must be positive, got 0"},
        {"run 'Jsb(4,2,2)' --set mem.l1d.sizeBytes=3",
         "cache 'l1d': lineBytes must divide sizeBytes, got lineBytes=64 "
         "sizeBytes=3"},
        {"run 'Jsb(4,2,2)' --set core.predictorBits=70",
         "predictorBits above 30"},
        {"run 'Jsb(4,2,2)' --set samplePeriods=0",
         "value for samplePeriods must be a positive integer"},
        {"run 'Jsb(4,2,2)' --set samplePeriods=-2",
         "value for samplePeriods must be a positive integer"},
        {"run 'Jsb(4,2,2)' --set symbiosSimCycles=0",
         "value for symbiosSimCycles must be a positive integer"},
        // Counts: zero or negative used to panic (exit 134), a level
        // outside the core's contexts threw, and `open --cores 0`
        // silently ran one core.
        {"cluster --nodes 0",
         "value for --nodes must be a positive integer: '0'"},
        {"cluster --nodes -1",
         "value for --nodes must be a positive integer: '-1'"},
        {"cluster --epoch 0",
         "value for --epoch must be a positive integer: '0'"},
        {"cluster --arrivals 0",
         "value for --arrivals must be a positive integer: '0'"},
        {"cluster --level 0", "value for --level must be in [1, 8]: '0'"},
        {"cluster --level 9", "value for --level must be in [1, 8]: '9'"},
        {"cluster --cores 0",
         "value for --cores must be a positive integer: '0'"},
        {"open --arrivals 0",
         "value for --arrivals must be a positive integer: '0'"},
        {"open --cores 0",
         "value for --cores must be a positive integer: '0'"},
        {"open --level 0", "value for --level must be in [1, 8]: '0'"},
        // A mean job that scales to zero cycles, and a non-positive
        // class weight or size factor, used to panic mid-setup.
        {"cluster --mean-job 0 --arrivals 5 --nodes 1",
         "value for --mean-job must be at least the cycle scale"},
        {"cluster --classes a:0:1 --arrivals 5 --nodes 1",
         "value for --classes weight of a must be positive: '0'"},
        {"cluster --classes a:1:1,b:-1:1",
         "value for --classes weight of b must be positive: '-1'"},
        {"cluster --classes a:1:-0.5",
         "value for --classes sizeFactor of a must be positive: '-0.5'"},
        // Class names that publish under no stats path, or under one
        // path twice, used to run silently or abort after the whole
        // run (exit 134); so did an infinite total weight.
        {"cluster --classes :1:1 --arrivals 5 --nodes 1",
         "--classes entry ':1:1' has an empty name"},
        {"cluster --classes a:1:1,a:1:2 --arrivals 5 --nodes 1",
         "--classes names 'a' and 'a' give the same stats path segment "
         "'a'"},
        {"cluster --classes a.b:1:1,a_b:1:1 --arrivals 5 --nodes 1",
         "--classes names 'a.b' and 'a_b' give the same stats path "
         "segment 'a_b'"},
        {"cluster --classes a:1e308:1,b:1e308:1 --arrivals 5 --nodes 1",
         "--classes weights up to b do not sum to a finite number"},
        // A job size past 2^64 instructions used to wrap to a tiny job
        // and run silently.
        {"cluster --classes a:1:1e300 --arrivals 5 --nodes 1",
         "does not fit in 64 bits of instructions; lower the class size "
         "factor or the mean job length"},
    };
    for (const auto &[args, message] : cases) {
        const auto [status, output] = runSossim(args);
        EXPECT_EQ(status, 1) << args << "\n" << output;
        EXPECT_NE(output.find(message), std::string::npos)
            << args << "\n" << output;
    }
    // The same ranges hold through the knobs' environment aliases.
    const std::pair<const char *, const char *> envs[] = {
        {"SOS_CYCLE_SCALE=0",
         "value for SOS_CYCLE_SCALE must be a positive integer"},
        {"SOS_TRACE_SAMPLE=0",
         "value for SOS_TRACE_SAMPLE must be a positive integer"},
    };
    for (const auto &[env, message] : envs) {
        const auto [status, output] = runSossim("run 'Jsb(4,2,2)'", env);
        EXPECT_EQ(status, 1) << env << "\n" << output;
        EXPECT_NE(output.find(message), std::string::npos)
            << env << "\n" << output;
    }
    // Any mean job below the cycle scale vanishes, at any scale.
    {
        const auto [status, output] =
            runSossim("cluster --mean-job 3999 --arrivals 5 --nodes 1",
                      "SOS_CYCLE_SCALE=4000");
        EXPECT_EQ(status, 1) << output;
        EXPECT_NE(output.find("value for --mean-job must be at least the "
                              "cycle scale (4000 paper cycles): '3999'"),
                  std::string::npos)
            << output;
    }
    // So does a stable interarrival derived from a mean job just above
    // it.
    {
        const auto [status, output] =
            runSossim("cluster --mean-job 4000 --arrivals 5 --nodes 1",
                      "SOS_CYCLE_SCALE=4000");
        EXPECT_EQ(status, 1) << output;
        EXPECT_NE(output.find("is shorter than the cycle scale (4000); "
                              "raise the mean job (--mean-job, 4000 "
                              "paper cycles)"),
                  std::string::npos)
            << output;
    }

    // The flag narrows no more than the parser does.
    const auto [status, output] =
        runSossim("cluster --arrivals 3 --nodes 4294967297");
    EXPECT_EQ(status, 1) << output;
    EXPECT_NE(output.find("value for --nodes is out of range for an int: "
                          "'4294967297'"),
              std::string::npos)
        << output;

    // fig9 takes the same counts and mean job as `sossim cluster`.
    const std::string fig9 = std::string(SOS_BENCH_DIR) + "/fig9_cluster";
    for (const char *flag : {"--nodes", "--arrivals"}) {
        const auto [fig9_status, fig9_output] =
            runTool(fig9, std::string(flag) + " 0");
        EXPECT_EQ(fig9_status, 1) << flag << "\n" << fig9_output;
        EXPECT_NE(fig9_output.find(std::string("value for ") + flag +
                                   " must be a positive integer: '0'"),
                  std::string::npos)
            << flag << "\n" << fig9_output;
    }
    const auto [fig9_status, fig9_output] =
        runTool(fig9, "--mean-job 999", "SOS_CYCLE_SCALE=1000");
    EXPECT_EQ(fig9_status, 1) << fig9_output;
    EXPECT_NE(fig9_output.find("value for --mean-job must be at least the "
                               "cycle scale (1000 paper cycles): '999'"),
              std::string::npos)
        << fig9_output;
}

TEST(ParamsIo, SostrainNumericFlagsGiveNamedErrors)
{
    // Each flag used to parse a prefix (atof: a typo became 0.0) or
    // narrow a long to an int (4294967297 became 1). The flags are
    // read before the trace file, which need not exist.
    const std::pair<const char *, const char *> cases[] = {
        {"--holdout 4294967297",
         "value for --holdout is out of range for an int: '4294967297'"},
        {"--depth 4x", "value for --depth is not an integer: '4x'"},
        {"--min-leaf 4294967297",
         "value for --min-leaf is out of range for an int"},
        {"--ridge 0.1x", "value for --ridge is not a finite number: '0.1x'"},
        {"--contrast abc",
         "value for --contrast is not a finite number: 'abc'"},
    };
    for (const auto &[args, message] : cases) {
        const auto [status, output] = runTool(
            SOS_SOSTRAIN, std::string("missing.jsonl --model-out m.txt ") +
                              args);
        EXPECT_EQ(status, 1) << args << "\n" << output;
        EXPECT_NE(output.find(message), std::string::npos)
            << args << "\n" << output;
    }
}

/** Every bench binary and every sossim subcommand that parses flags. */
std::vector<std::string>
commandLines()
{
    std::vector<std::string> tools;
    const std::string benches = SOS_BENCHES;
    for (std::size_t start = 0; start <= benches.size();) {
        std::size_t end = benches.find(',', start);
        if (end == std::string::npos)
            end = benches.size();
        tools.push_back(std::string(SOS_BENCH_DIR) + "/" +
                        benches.substr(start, end - start));
        start = end + 1;
    }
    for (const char *command :
         {"run", "open", "hier", "machine", "cluster", "config"})
        tools.push_back(std::string(SOS_SOSSIM) + " " + command);
    return tools;
}

TEST(CommandLine, UnknownFlagsAreNamed)
{
    // One parser: every tool rejects a flag it does not declare,
    // before any simulation runs.
    const std::vector<std::string> tools = commandLines();
    EXPECT_GT(tools.size(), 20u);
    for (const std::string &tool : tools) {
        const auto [status, output] = runTool(tool, "--frobnicate 1");
        EXPECT_EQ(status, 1) << tool << "\n" << output;
        EXPECT_NE(output.find("unknown argument '--frobnicate'"),
                  std::string::npos)
            << tool << "\n" << output;
    }
}

TEST(CommandLine, HelpListsTheSharedFlags)
{
    for (const std::string &tool : commandLines()) {
        const auto [status, output] = runTool(tool, "--help");
        EXPECT_EQ(status, 0) << tool << "\n" << output;
        for (const char *flag : {"--set key=value", "--out FILE",
                                 "--bench FILE", "--help"}) {
            EXPECT_NE(output.find(flag), std::string::npos)
                << tool << " " << flag << "\n" << output;
        }
    }
}

TEST(CommandLine, SossimRunWritesBenchDocument)
{
    // sossim used to accept --bench and write nothing.
    const std::string path =
        ::testing::TempDir() + "sos_cli_run.bench.json";
    std::remove(path.c_str());
    const auto [status, output] = runSossim(
        "run 'Jsb(4,2,2)' --set symbiosSimCycles=20000 --bench " + path,
        "SOS_CYCLE_SCALE=2000");
    ASSERT_EQ(status, 0) << output;
    FILE *file = std::fopen(path.c_str(), "r");
    ASSERT_NE(file, nullptr) << path;
    char head[128] = {};
    const std::size_t read = std::fread(head, 1, sizeof(head) - 1, file);
    std::fclose(file);
    std::remove(path.c_str());
    EXPECT_EQ(std::string(head, read)
                  .rfind("{\"schema\":\"sos.bench\",\"schema_version\":3,"
                         "\"tool\":\"sossim run\",",
                         0),
              0u)
        << head;
}

TEST(CommandLine, SossimParamsPrintsKeysThatSetAccepts)
{
    // `sossim params` used to cut keys to a fixed column width, and
    // --set rejected the cut names it printed.
    const auto [status, output] = runSossim("params");
    ASSERT_EQ(status, 0) << output;
    std::map<std::string, std::string> catalogue;
    for (const ParamInfo &info : configurableParams())
        catalogue.emplace(info.key, info.currentValue);

    // The rows follow the header's rule; each starts with its key.
    std::istringstream lines(output);
    std::string line;
    while (std::getline(lines, line) && line.rfind("---", 0) != 0) {
    }
    std::size_t rows = 0;
    std::string longest;
    while (std::getline(lines, line)) {
        const std::string key = line.substr(0, line.find(' '));
        const auto known = catalogue.find(key);
        ASSERT_NE(known, catalogue.end()) << "printed key '" << key << "'";
        SimConfig config;
        std::string error;
        EXPECT_TRUE(tryApplyOverride(config, key, known->second, error))
            << key << ": " << error;
        if (key.size() > longest.size())
            longest = key;
        ++rows;
    }
    EXPECT_EQ(rows, catalogue.size());

    // The longest printed key through the real --set.
    const auto [set_status, set_output] = runSossim(
        "config --set '" + longest + "=" + catalogue.at(longest) + "'");
    EXPECT_EQ(set_status, 0) << longest << "\n" << set_output;
}

TEST(CommandLine, SetWinsOverMachineConfigInEitherOrder)
{
    // The machine file loads before every --set, wherever it stands.
    const std::string machine =
        std::string(SOS_CONFIG_DIR) + "/paper_default.cfg";
    const std::vector<std::vector<std::string>> orders = {
        {"--set", "core.robSize=64", "--machine-config", machine},
        {"--machine-config", machine, "--set", "core.robSize=64"},
    };
    for (const std::vector<std::string> &args : orders) {
        EXPECT_EQ(parseArgs(args).config.core.robSize, 64) << args[0];

        std::string line;
        for (const std::string &arg : args)
            line += " " + arg;
        const auto [status, output] = runSossim("config" + line);
        EXPECT_EQ(status, 0) << line << "\n" << output;
        EXPECT_NE(output.find("\ncore.robSize=64\n"), std::string::npos)
            << line << "\n" << output;
    }
}

TEST(CommandLine, SetWinsOverPerNodeMachineFiles)
{
    // Two or more machine files build one config per node; each file
    // loads before the --set overrides, as a single machine file does.
    const std::string dir = ::testing::TempDir();
    const std::string a = dir + "node_a.cfg";
    const std::string b = dir + "node_b.cfg";
    {
        std::ofstream(a) << "core.robSize 32\nmem.l2HitLatency 14\n";
        std::ofstream(b) << "core.robSize 48\n";
    }
    std::vector<std::string> args = {"t", "--machine-config", a,
                                      "--set", "core.robSize=64",
                                      "--machine-config", b};
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    std::vector<SimConfig> nodes;
    const BenchOptions options =
        parseBenchArgs({.tool = "t", .nodeConfigs = &nodes},
                       static_cast<int>(argv.size()), argv.data());
    ASSERT_EQ(nodes.size(), 2u);
    for (const SimConfig &node : nodes)
        EXPECT_EQ(node.core.robSize, 64);
    EXPECT_EQ(nodes[0].mem.l2HitLatency, 14u);
    EXPECT_EQ(nodes[0].machineConfigPath, a);
    EXPECT_EQ(nodes[1].machineConfigPath, b);
    // The base config loads neither file but keeps the override.
    EXPECT_EQ(options.config.core.robSize, 64);
    EXPECT_TRUE(options.config.machineConfigPath.empty());
}

TEST(ParamsIo, EnvironmentKnobsParseWholeValues)
{
    ::setenv("SOS_SEED", "4242", 1);
    ::setenv("SOS_CYCLE_SCALE", "750", 1);
    const SimConfig config = benchConfigFromEnv();
    ::unsetenv("SOS_SEED");
    ::unsetenv("SOS_CYCLE_SCALE");
    EXPECT_EQ(config.seed, 4242u);
    EXPECT_EQ(config.cycleScale, 750u);
}

TEST(ParamsIo, EnvironmentKnobTyposAreFatal)
{
    // Death tests run in a child process, so the setenv calls do not
    // leak into the rest of the suite.
    EXPECT_DEATH(
        {
            ::setenv("SOS_SEED", "12x", 1);
            benchConfigFromEnv();
        },
        "SOS_SEED is not an unsigned integer");
    EXPECT_DEATH(
        {
            ::setenv("SOS_CYCLE_SCALE", "500x", 1);
            benchConfigFromEnv();
        },
        "SOS_CYCLE_SCALE is not an unsigned integer");
    EXPECT_DEATH(
        {
            ::setenv("SOS_CYCLE_SCALE", "0", 1);
            benchConfigFromEnv();
        },
        "SOS_CYCLE_SCALE must be a positive integer");
}

/** Sets one environment variable for a scope, then restores it. */
class ScopedEnv
{
  public:
    ScopedEnv(const std::string &name, const std::string &value)
        : name_(name)
    {
        if (const char *old = std::getenv(name.c_str()))
            old_ = old;
        ::setenv(name.c_str(), value.c_str(), 1);
    }
    ~ScopedEnv()
    {
        if (old_)
            ::setenv(name_.c_str(), old_->c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    std::optional<std::string> old_;
};

TEST(ParamsIo, EveryEnvironmentAliasParsesLikeItsKey)
{
    // One valid and one invalid value per knob with an alias (nullptr:
    // every string is a valid model path). A new alias must add its
    // own row here.
    const std::map<std::string, std::pair<const char *, const char *>>
        values = {
            {"cycleScale", {"750", "0"}},
            {"seed", {"4242", "12x"}},
            {"traceSample", {"4", "0"}},
            {"sample", {"2250:62:188", "1000:10"}},
            {"model", {"some.model", nullptr}},
        };
    std::size_t aliases = 0;
    for (const ParamInfo &info : configurableParams()) {
        if (info.env.empty())
            continue;
        ++aliases;
        SCOPED_TRACE(info.env);
        ASSERT_TRUE(values.contains(info.key)) << info.key;
        const auto [valid, invalid] = values.at(info.key);

        const SimConfig base = benchConfigFromEnv();
        SimConfig expected = base;
        applyOverride(expected, info.key + "=" + valid);
        ASSERT_NE(renderConfig(expected), renderConfig(base));
        {
            const ScopedEnv env(info.env, valid);
            EXPECT_EQ(renderConfig(benchConfigFromEnv()),
                      renderConfig(expected));
        }
        if (invalid != nullptr) {
            EXPECT_DEATH(
                {
                    const ScopedEnv env(info.env, invalid);
                    benchConfigFromEnv();
                },
                "value for " + info.env);
        }
    }
    EXPECT_EQ(aliases, values.size());
}

TEST(ParamsIo, SosJobsNeverNarrowsSilently)
{
    // Each value used to wrap through a long -> int cast: to 1 worker,
    // to -1 and to -1294967296.
    for (const char *wide : {"4294967297", "4294967295", "3000000000"}) {
        EXPECT_DEATH(
            {
                ::setenv("SOS_JOBS", wide, 1);
                benchConfigFromEnv();
            },
            std::string("SOS_JOBS is out of range for an int: '") + wide +
                "'");
    }
    EXPECT_DEATH(
        {
            ::setenv("SOS_JOBS", "-3", 1);
            benchConfigFromEnv();
        },
        "SOS_JOBS must be a positive integer, got '-3'");
    EXPECT_DEATH(
        {
            ::setenv("SOS_JOBS", "4x", 1);
            benchConfigFromEnv();
        },
        "SOS_JOBS is not an integer: '4x'");
}

} // namespace
} // namespace sos
