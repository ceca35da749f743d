/**
 * @file
 * sossim: command-line driver for the library.
 *
 * Subcommands:
 *   sossim workloads                     list the workload models
 *   sossim experiments                   list the paper's experiments
 *   sossim params                        list configurable keys
 *   sossim run <label> [--set k=v]...    run one throughput experiment
 *   sossim open [--level N] [--jobs N] [--set k=v]...
 *                                        naive-vs-SOS response times
 *   sossim hier [--level N] [--set k=v]...
 *                                        hierarchical symbiosis
 *   sossim machine [--cores N] [--set k=v]...
 *                                        machine-level SOS on a CMP
 *
 * Every subcommand accepts repeated --set key=value overrides (see
 * `sossim params`) and --help, plus the SOS_CYCLE_SCALE / SOS_SEED
 * environment variables handled by the bench harnesses.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "common/logging.hh"
#include "config/machine_config.hh"
#include "core/predictor.hh"
#include "core/resample_policy.hh"
#include "sim/batch_experiment.hh"
#include "sim/bench_harness.hh"
#include "sim/config_env.hh"
#include "sim/hierarchical_experiment.hh"
#include "sim/open_system.hh"
#include "sim/params_io.hh"
#include "sim/reporting.hh"
#include "sos/open_backend.hh"
#include "trace/workload_library.hh"

namespace {

using namespace sos;

/** Parsed command line: positionals plus --flag value pairs. */
struct Args
{
    std::vector<std::string> positional;
    std::vector<std::string> overrides; ///< from --set
    std::vector<std::pair<std::string, std::string>> flags;

    std::string
    flag(const std::string &name, const std::string &fallback) const
    {
        for (const auto &[key, value] : flags) {
            if (key == name)
                return value;
        }
        return fallback;
    }

    /** True when --name was given (even with an empty value). */
    bool
    has(const std::string &name) const
    {
        return std::any_of(flags.begin(), flags.end(),
                           [&](const auto &f) { return f.first == name; });
    }

    /** --name as an int (@p fallback when absent); fatal() if malformed. */
    int
    intFlag(const std::string &name, int fallback) const
    {
        return has(name) ? parseKnobInt("--" + name, flag(name, ""))
                         : fallback;
    }

    /** --name as an unsigned integer; fatal() if malformed. */
    std::uint64_t
    u64Flag(const std::string &name, std::uint64_t fallback) const
    {
        return has(name) ? parseKnobU64("--" + name, flag(name, ""))
                         : fallback;
    }
};

/**
 * Per-subcommand usage, printed by `sossim <command> --help`. Every
 * line documents the shared output/worker knobs once so no subcommand
 * forgets them.
 */
void
printUsage(const std::string &command)
{
    const char *synopsis = "[options]";
    const char *specific = "";
    if (command == "run") {
        synopsis = "<label> [options]";
        specific = "  --jobs N            sweep worker threads\n";
    } else if (command == "open") {
        specific = "  --level N           SMT level (default 3)\n"
                   "  --cores N           SMT cores (default 1; more "
                   "build the CMP backend)\n"
                   "  --jobs N            jobs in the open system "
                   "(default 24)\n"
                   "  --set predictor=P   symbios predictor (see "
                   "`sossim open --set predictor=? ...`)\n"
                   "  --set policy=P      resample-timer policy "
                   "(backoff, fixed)\n";
    } else if (command == "hier") {
        specific = "  --level N           SMT level (default 2)\n"
                   "  --jobs N            sweep worker threads\n";
    } else if (command == "machine") {
        specific = "  --cores N           SMT cores on the machine "
                   "(default 2)\n"
                   "  --jobs N            sweep worker threads\n";
    } else if (command == "cluster") {
        specific =
            "  --nodes N           machines in the cluster (default "
            "2)\n"
            "  --dispatch P        dispatch policy: random, "
            "round-robin, least-loaded,\n"
            "                      signature (default)\n"
            "  --arrivals N        jobs in the arrival trace "
            "(default 1000)\n"
            "  --process P         arrival process: poisson "
            "(default), mmpp, diurnal\n"
            "  --epoch N           timeslices per dispatch epoch "
            "(default 8)\n"
            "  --level N           SMT level of every node (default "
            "3)\n"
            "  --cores N           SMT cores per node (default 1)\n"
            "  --mean-job C        mean job length in paper cycles\n"
            "  --mean-interarrival C\n"
            "                      front-door mean interarrival in "
            "paper cycles\n"
            "                      (default derives the stable load)\n"
            "  --classes SPEC      SLA classes as "
            "name:weight:sizeFactor[,...]\n"
            "  --jobs N            host worker threads for the node "
            "fan-out\n"
            "  (repeat --machine-config to give each node its own "
            "machine file)\n";
    }
    std::printf(
        "usage: sossim %s %s\n\n"
        "options:\n"
        "%s"
        "  --set key=value     configuration override (repeatable; "
        "see `sossim params`)\n"
        "  --machine-config F  machine description file (per-core "
        "params; env SOS_MACHINE_CONFIG)\n"
        "  --out FILE.json     write the JSON run manifest (env "
        "SOS_OUT)\n"
        "  --trace FILE.jsonl  write the scheduler decision trace "
        "(env SOS_TRACE)\n"
        "  --help              show this message and exit\n\n"
        "environment: SOS_CYCLE_SCALE, SOS_SEED, SOS_JOBS, "
        "SOS_MACHINE_CONFIG, SOS_OUT, SOS_TRACE\n",
        command.c_str(), synopsis, specific);
}

/** True when any argument past the subcommand asks for help. */
bool
wantsHelp(int argc, char **argv)
{
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            return true;
        }
    }
    return false;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--set") {
            if (i + 1 >= argc)
                fatal("--set needs a key=value argument");
            args.overrides.push_back(argv[++i]);
        } else if (arg.rfind("--", 0) == 0) {
            if (i + 1 >= argc)
                fatal(arg, " needs a value");
            args.flags.emplace_back(arg.substr(2), argv[++i]);
        } else {
            args.positional.push_back(arg);
        }
    }
    return args;
}

/**
 * The environment, then --machine-config, --model and the --set
 * overrides, validated. Given @p node_machines (cluster), a repeated
 * --machine-config gives each node its own file instead.
 */
SimConfig
configFor(const Args &args,
          std::vector<std::string> *node_machines = nullptr)
{
    SimConfig config = benchConfigFromEnv();
    std::vector<std::string> machines;
    for (const auto &[key, value] : args.flags) {
        if (key == "machine-config")
            machines.push_back(value);
    }
    // The machine file loads before the --set pass so explicit CLI
    // overrides still win over the file's machine-wide defaults.
    if (node_machines != nullptr && machines.size() > 1)
        *node_machines = machines;
    else if (!machines.empty())
        applyMachineConfig(config, machines.front());
    const std::string model = args.flag("model", "");
    if (!model.empty())
        config.modelPath = model;
    applyOverrides(config, args.overrides);
    validateConfig(config);
    return config;
}

/**
 * configFor() plus worker threads from --jobs (not used by `open`,
 * where --jobs already names the number of jobs in the system).
 */
SimConfig
configWithWorkers(const Args &args,
                  std::vector<std::string> *node_machines = nullptr)
{
    SimConfig config = configFor(args, node_machines);
    const std::string jobs = args.flag("jobs", "");
    if (!jobs.empty())
        applyOverride(config, "jobs=" + jobs);
    return config;
}

/** Manifest/trace destinations: --out / --trace, else environment. */
OutputPaths
outputsFor(const Args &args)
{
    OutputPaths out = outputPathsFromEnv();
    const std::string manifest = args.flag("out", "");
    if (!manifest.empty())
        out.manifest = manifest;
    const std::string trace = args.flag("trace", "");
    if (!trace.empty())
        out.trace = trace;
    return out;
}

int
cmdWorkloads()
{
    printBanner("Workload models");
    TablePrinter table({"name", "fp%", "load%", "store%", "avg BB",
                        "dep", "WS KiB", "code KiB", "sync"},
                       {10, 6, 6, 6, 6, 5, 7, 8, 8});
    table.printHeader();
    const auto &lib = WorkloadLibrary::instance();
    for (const std::string &name : lib.names()) {
        const WorkloadProfile &p = lib.get(name);
        table.printRow(
            {name, fmt(100.0 * p.fpFraction(), 0),
             fmt(100.0 * p.fracLoad, 0), fmt(100.0 * p.fracStore, 0),
             fmt(p.avgBasicBlock, 0), fmt(p.avgDepDistance, 1),
             std::to_string(p.workingSetBytes / 1024),
             std::to_string(p.codeBytes / 1024),
             p.syncInterval ? std::to_string(p.syncInterval) : "-"});
    }
    return 0;
}

int
cmdExperiments()
{
    printBanner("Throughput experiments (paper Table 1/2)");
    TablePrinter table({"label", "jobs", "level", "swap", "schedules"},
                       {14, 5, 6, 5, 10});
    table.printHeader();
    for (const ExperimentSpec &spec : paperExperiments()) {
        table.printRow({spec.label, std::to_string(spec.numUnits()),
                        std::to_string(spec.level),
                        std::to_string(spec.swap),
                        std::to_string(expectedDistinctSchedules(spec))});
    }
    printBanner("Hierarchical experiments (Section 7)");
    for (const HierarchicalSpec &spec : hierarchicalExperiments())
        std::printf("  %s\n", spec.label.c_str());
    return 0;
}

int
cmdParams()
{
    printBanner("Configurable parameters (--set key=value)");
    TablePrinter table({"key", "default", "description"}, {30, 10, 44});
    table.printHeader();
    for (const ParamInfo &info : configurableParams())
        table.printRow({info.key, info.currentValue, info.description});
    return 0;
}

int
cmdRun(const Args &args)
{
    if (args.positional.empty())
        fatal("usage: sossim run <experiment label>");
    BenchHarness harness("sossim run", configWithWorkers(args),
                         outputsFor(args));
    const SimConfig &config = harness.config();
    const ExperimentSpec &spec = experimentByLabel(args.positional[0]);

    BatchExperiment exp(spec, config);
    exp.runSamplePhase();
    exp.runSymbiosValidation();
    exp.publishStats(
        harness.group(stats::sanitizeSegment(spec.label)));
    if (harness.wantsTrace())
        exp.recordTrace(harness.trace());

    printBanner(spec.label);
    TablePrinter table({"schedule", "sample IPC", "symbios WS"},
                       {30, 10, 11});
    table.printHeader();
    for (std::size_t i = 0; i < exp.schedules().size(); ++i) {
        table.printRow({exp.schedules()[i].label(),
                        fmt(exp.profiles()[i].counters.ipc(), 2),
                        fmt(exp.symbiosWs()[i], 3)});
    }
    std::printf("\nWS: worst %.3f  avg %.3f  best %.3f\n",
                exp.worstWs(), exp.averageWs(), exp.bestWs());
    for (const auto &predictor : makeAllPredictors()) {
        std::printf("  %-10s -> WS %.3f\n", predictor->name().c_str(),
                    exp.wsOfPredictor(*predictor));
    }
    return harness.finish();
}

int
cmdOpen(const Args &args)
{
    OpenSystemConfig open;
    open.level = args.intFlag("level", 3);
    open.numJobs = args.intFlag("jobs", 24);

    // The open system has its own --set keys: predictor= and policy=
    // name registry entries, not SimConfig fields (the manifest's
    // config block must stay comparable across figures). Peel them
    // off before the SimConfig override pass sees them.
    Args sim_args = args;
    sim_args.overrides.clear();
    for (const std::string &override : args.overrides) {
        if (override.rfind("predictor=", 0) == 0)
            open.predictor = override.substr(10);
        else if (override.rfind("policy=", 0) == 0)
            open.resamplePolicy = override.substr(7);
        else
            sim_args.overrides.push_back(override);
    }
    // Fail fast on unknown names, before any simulation runs; the
    // registries list every registered name in their error message.
    makePredictor(open.predictor);
    makeResamplePolicy(open.resamplePolicy, 1);

    BenchHarness harness("sossim open", configFor(sim_args),
                         outputsFor(args));
    const SimConfig &config = harness.config();
    // --cores wins; otherwise a loaded machine config sets the core
    // count, and the default stays the paper's single SMT core.
    open.numCores = args.intFlag("cores", std::max(1, config.machineCores));
    open.seed = config.seed ^ 0x09e2ULL;

    // The SOS backend is owned here so its machine's stat groups
    // survive into the manifest dump; both runs are serial, so the
    // decision trace stays deterministic.
    const std::unique_ptr<EngineBackend> backend =
        makeOpenBackend(config, open.level, open.numCores);
    const ResponseComparison comparison = compareResponseTimes(
        config, open, backend.get(),
        harness.wantsTrace() ? &harness.trace() : nullptr);

    const stats::Group open_group = harness.group("open");
    open_group.scalar("jobs", "arrivals simulated") =
        static_cast<std::uint64_t>(comparison.jobsCompared);
    open_group.info("backend", "engine backend substrate") =
        backend->name();
    open_group.info("predictor", "symbios predictor") = open.predictor;
    open_group.info("resample_policy", "resample-timer policy") =
        open.resamplePolicy;
    open_group.scalar("cores", "SMT cores on the machine") =
        static_cast<std::uint64_t>(open.numCores);
    backend->machine().registerStats(open_group.group("machine"));
    const auto publishPolicy = [&](const char *name,
                                   const OpenSystemResult &result) {
        const stats::Group policy = open_group.group(name);
        policy.value("mean_response_cycles",
                     "mean job response time") =
            result.meanResponseCycles;
        policy.value("mean_jobs_in_system",
                     "mean queue length (Little's law)") =
            result.meanJobsInSystem;
        policy.scalar("total_cycles", "simulated cycles to drain") =
            result.totalCycles;
        policy.scalar("sample_cycles",
                      "cycles spent in sample phases") =
            result.sampleCycles;
        policy.scalar("sample_phases", "sample phases run") =
            static_cast<std::uint64_t>(result.samplePhases);
        policy.scalar("resamples_job_change",
                      "resamples from arrivals/departures") =
            static_cast<std::uint64_t>(result.resamplesOnJobChange);
        policy.scalar("resamples_timer",
                      "resamples from the backoff timer") =
            static_cast<std::uint64_t>(result.resamplesOnTimer);
    };
    publishPolicy("naive", comparison.naive);
    publishPolicy("sos", comparison.sos);
    open_group.value("improvement_pct",
                     "SOS mean-response gain over naive") =
        comparison.improvementPct;

    printBanner("Open system, SMT level " + std::to_string(open.level));
    std::printf("jobs completed: %d\n", comparison.jobsCompared);
    std::printf("naive mean response: %s cycles\n",
                fmtCycles(static_cast<std::uint64_t>(
                              comparison.naive.meanResponseCycles))
                    .c_str());
    std::printf("SOS mean response:   %s cycles (%d sample phases)\n",
                fmtCycles(static_cast<std::uint64_t>(
                              comparison.sos.meanResponseCycles))
                    .c_str(),
                comparison.sos.samplePhases);
    std::printf("improvement: %.1f%%\n", comparison.improvementPct);
    return harness.finish();
}

int
cmdHier(const Args &args)
{
    BenchHarness harness("sossim hier", configWithWorkers(args),
                         outputsFor(args));
    const SimConfig &config = harness.config();
    const int level = args.intFlag("level", 2);
    const HierarchicalSpec *chosen = nullptr;
    for (const HierarchicalSpec &spec : hierarchicalExperiments()) {
        if (spec.level == level)
            chosen = &spec;
    }
    if (chosen == nullptr)
        fatal("no hierarchical experiment at SMT level ", level);

    HierarchicalExperiment exp(*chosen, config);
    exp.run();
    exp.publishStats(
        harness.group(stats::sanitizeSegment(chosen->label)));
    if (harness.wantsTrace())
        exp.recordTrace(harness.trace());
    printBanner(chosen->label);
    TablePrinter table({"allocation", "schedule", "WS"}, {14, 22, 7});
    table.printHeader();
    for (const auto &candidate : exp.candidates()) {
        table.printRow({candidate.plan.label(),
                        candidate.schedule.label(),
                        fmt(candidate.symbiosWs, 3)});
    }
    std::printf("\nSOS: WS %.3f (%+.1f%% vs avg, %+.1f%% vs worst)\n",
                exp.scoreWs(), exp.improvementOverAveragePct(),
                exp.improvementOverWorstPct());
    return harness.finish();
}

int
cmdMachine(const Args &args)
{
    BenchHarness harness("sossim machine", configWithWorkers(args),
                         outputsFor(args));
    const SimConfig &config = harness.config();
    // --cores wins; otherwise a loaded machine config picks the
    // experiment its core count can host, defaulting to the 2-core CMP.
    const int cores = args.intFlag(
        "cores", config.machineCores > 0 ? config.machineCores : 2);
    const ExperimentSpec *chosen = nullptr;
    for (const ExperimentSpec &spec : machineExperiments()) {
        if (spec.numCores == cores)
            chosen = &spec;
    }
    if (chosen == nullptr)
        fatal("no machine experiment with ", cores,
              " cores (try `sossim machine --help`)");

    BatchExperiment exp(*chosen, config);
    exp.runSamplePhase();
    exp.runSymbiosValidation();

    printBanner(chosen->label);
    TablePrinter table({"machine schedule", "sample WS", "symbios WS"},
                       {34, 9, 11});
    table.printHeader();
    for (std::size_t i = 0; i < exp.schedules().size(); ++i) {
        table.printRow({exp.schedules()[i].label(),
                        fmt(exp.profiles()[i].sampleWs, 3),
                        fmt(exp.symbiosWs()[i], 3)});
    }
    std::printf("\nWS: worst %.3f  avg %.3f  best %.3f\n",
                exp.worstWs(), exp.averageWs(), exp.bestWs());

    std::printf("\nthread-to-core allocation policies:\n");
    for (const std::string &name : threadToCorePolicyNames()) {
        const BatchExperiment::PolicyResult &result =
            exp.evaluatePolicy(name);
        std::printf("  %-16s %-24s avg WS %.3f  best WS %.3f\n",
                    result.policy.c_str(),
                    result.allocationLabel.c_str(), result.avgWs,
                    result.bestWs);
    }

    exp.publishStats(
        harness.group(stats::sanitizeSegment(chosen->label)));
    if (harness.wantsTrace())
        exp.recordTrace(harness.trace());
    return harness.finish();
}

/** Parse an SLA class list: "name:weight:sizeFactor[,...]". */
std::vector<ArrivalClass>
parseClasses(const std::string &spec)
{
    std::vector<ArrivalClass> classes;
    std::size_t start = 0;
    while (start < spec.size()) {
        std::size_t end = spec.find(',', start);
        if (end == std::string::npos)
            end = spec.size();
        const std::string entry = spec.substr(start, end - start);
        const std::size_t first = entry.find(':');
        const std::size_t second =
            first == std::string::npos ? std::string::npos
                                       : entry.find(':', first + 1);
        if (first == std::string::npos || second == std::string::npos)
            fatal("class entry '", entry,
                  "' is not name:weight:sizeFactor");
        ArrivalClass klass;
        klass.name = entry.substr(0, first);
        klass.weight =
            parseKnobDouble("--classes weight of " + klass.name,
                            entry.substr(first + 1, second - first - 1));
        klass.sizeFactor =
            parseKnobDouble("--classes sizeFactor of " + klass.name,
                            entry.substr(second + 1));
        classes.push_back(std::move(klass));
        start = end + 1;
    }
    return classes;
}

int
cmdCluster(const Args &args)
{
    ClusterConfig cluster;
    cluster.numNodes = args.intFlag("nodes", cluster.numNodes);
    cluster.dispatch = args.flag("dispatch", cluster.dispatch);
    cluster.process = args.flag("process", cluster.process);
    cluster.numJobs = args.intFlag("arrivals", 1000);
    cluster.level = args.intFlag("level", 3);
    cluster.numCores = args.intFlag("cores", 1);
    cluster.epochSlices = args.intFlag("epoch", 8);
    cluster.meanJobPaperCycles =
        args.u64Flag("mean-job", cluster.meanJobPaperCycles);
    cluster.meanInterarrivalPaper = args.u64Flag("mean-interarrival", 0);
    const std::string classes = args.flag("classes", "");
    if (!classes.empty())
        cluster.classes = parseClasses(classes);
    makeResamplePolicy(cluster.resamplePolicy, 1);

    const SimConfig config =
        configWithWorkers(args, &cluster.nodeMachineConfigs);
    // Fail fast on unknown registry names and unreadable model files,
    // before any simulation.
    makeDispatcher(cluster.dispatch, 0, config.modelPath);
    makePredictor(cluster.predictor, config.modelPath);

    BenchHarness harness("sossim cluster", config, outputsFor(args));
    cluster.seed = harness.config().seed ^ 0xc105edULL;

    Cluster machine_room(harness.config(), cluster);
    const ClusterResult result = machine_room.run(
        harness.wantsTrace() ? &harness.trace() : nullptr);
    machine_room.publishStats(harness.group("cluster"));

    printBanner("Cluster: " + std::to_string(cluster.numNodes) +
                " nodes, " + cluster.dispatch + " dispatch, " +
                cluster.process + " arrivals");
    TablePrinter table({"node", "dispatched", "completed", "util%",
                        "sample phases"},
                       {5, 10, 9, 6, 13});
    table.printHeader();
    for (const ClusterNodeSummary &node : result.nodes) {
        table.printRow({std::to_string(node.id),
                        std::to_string(node.dispatched),
                        std::to_string(node.completed),
                        fmt(100.0 * node.utilization, 1),
                        std::to_string(node.samplePhases)});
    }
    // Exact percentiles for the console; the manifest carries the
    // streaming histogram's (bounded-memory) approximations.
    std::vector<std::uint64_t> sorted = result.responseByArrival;
    std::sort(sorted.begin(), sorted.end());
    const auto at = [&](double q) {
        const std::size_t rank = std::min(
            sorted.size() - 1,
            static_cast<std::size_t>(
                q * static_cast<double>(sorted.size())));
        return sorted[rank];
    };
    std::printf("\njobs: %zu completed over %zu epochs\n",
                result.completed,
                static_cast<std::size_t>(result.epochs));
    std::printf("response cycles: mean %s  p50 %s  p95 %s  p99 %s\n",
                fmtCycles(static_cast<std::uint64_t>(
                              result.meanResponseCycles))
                    .c_str(),
                fmtCycles(at(0.50)).c_str(), fmtCycles(at(0.95)).c_str(),
                fmtCycles(at(0.99)).c_str());
    return harness.finish();
}

int
cmdHelp()
{
    std::printf(
        "sossim -- symbiotic jobscheduling simulator (Snavely & "
        "Tullsen, ASPLOS 2000)\n\n"
        "usage: sossim <command> [options]\n\n"
        "commands:\n"
        "  workloads              list the workload models\n"
        "  experiments            list the paper's experiments\n"
        "  params                 list --set keys\n"
        "  run <label> [--jobs N] run a throughput experiment\n"
        "  open [--level N] [--jobs N]\n"
        "                         naive-vs-SOS response times\n"
        "  hier [--level N] [--jobs N]\n"
        "                         hierarchical symbiosis\n"
        "  machine [--cores N]    machine-level SOS on a CMP of SMT "
        "cores\n"
        "  cluster [--nodes N] [--dispatch P] [--arrivals N]\n"
        "                         N machines behind a symbiosis-aware "
        "dispatcher\n"
        "  config                 print the effective configuration\n\n"
        "`sossim <command> --help` prints each subcommand's options.\n"
        "options: repeated --set key=value; env SOS_CYCLE_SCALE, "
        "SOS_SEED, SOS_JOBS (sweep worker threads; for run/hier "
        "--jobs N\n"
        "does the same, while `open --jobs` is the system's job "
        "count).\n"
        "run/open/hier also accept --out FILE.json (JSON run "
        "manifest, env SOS_OUT)\n"
        "and --trace FILE.jsonl (scheduler decision trace, env "
        "SOS_TRACE).\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return cmdHelp();
    const std::string command = argv[1];
    if (wantsHelp(argc, argv)) {
        printUsage(command);
        return 0;
    }
    const Args args = parseArgs(argc, argv);

    if (command == "workloads")
        return cmdWorkloads();
    if (command == "experiments")
        return cmdExperiments();
    if (command == "params")
        return cmdParams();
    if (command == "run")
        return cmdRun(args);
    if (command == "open")
        return cmdOpen(args);
    if (command == "hier")
        return cmdHier(args);
    if (command == "machine")
        return cmdMachine(args);
    if (command == "cluster")
        return cmdCluster(args);
    if (command == "config") {
        std::fputs(renderConfig(configFor(args)).c_str(), stdout);
        return 0;
    }
    if (command == "help" || command == "--help")
        return cmdHelp();
    fatal("unknown command '", command, "' (try `sossim help`)");
}
