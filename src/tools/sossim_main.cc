/**
 * @file
 * sossim: command-line driver for the library.
 *
 * Subcommands (`sossim help` lists them, `sossim <command> --help`
 * prints each one's flags):
 *   workloads, experiments, params   list the catalogues
 *   run <label>                      one throughput experiment
 *   open                             naive-vs-SOS response times
 *   hier                             hierarchical symbiosis
 *   machine                          machine-level SOS on a CMP
 *   cluster                          N machines behind a dispatcher
 *   config                           the effective configuration
 *
 * Each subcommand declares its own flags as rows for the shared
 * parser (sim/config_env.hh), which adds --set, --jobs,
 * --machine-config, --model, --out, --trace and --bench, rejects any
 * other flag and prints --help from the same rows.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "common/logging.hh"
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

int
cmdWorkloads(int argc, char **argv)
{
    parseFlags("sossim workloads", {}, argc, argv);
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
cmdExperiments(int argc, char **argv)
{
    parseFlags("sossim experiments", {}, argc, argv);
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
cmdParams(int argc, char **argv)
{
    parseFlags("sossim params", {}, argc, argv);
    printBanner("Configurable parameters (--set key=value)");
    TablePrinter table({"key", "default", "description"}, {30, 10, 44});
    table.printHeader();
    for (const ParamInfo &info : configurableParams())
        table.printRow({info.key, info.currentValue, info.description});
    return 0;
}

int
cmdRun(int argc, char **argv)
{
    std::string label;
    BenchHarness harness(
        {.tool = "sossim run",
         .flags = {Flag::into("", "<label>",
                              "experiment label (see `sossim "
                              "experiments`)",
                              label)}},
        argc, argv);
    if (label.empty())
        fatal("usage: sossim run <experiment label>");
    const SimConfig &config = harness.config();
    const ExperimentSpec &spec = experimentByLabel(label);

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
cmdOpen(int argc, char **argv)
{
    OpenSystemConfig open;
    open.numJobs = 24;
    std::optional<int> cores;
    // The predictor and the resample policy name registry entries, not
    // SimConfig fields: the manifest's config block stays comparable
    // across figures.
    BenchHarness harness(
        {.tool = "sossim open",
         .flags =
             {Flag::into("--level", "N", "SMT level (default 3)",
                         open.level),
              Flag::into("--cores", "N",
                         "SMT cores (default 1 or the machine "
                         "config's; more build the CMP backend)",
                         cores),
              Flag::into("--arrivals", "N",
                         "jobs in the open system (default 24)",
                         open.numJobs),
              Flag::into("--predictor", "P",
                         "symbios predictor (default IPC)",
                         open.predictor),
              Flag::into("--policy", "P",
                         "resample-timer policy: backoff (default), "
                         "fixed",
                         open.resamplePolicy)}},
        argc, argv);
    const SimConfig &config = harness.config();
    // Fail fast on unknown names, before any simulation runs; the
    // registries list every registered name in their error message.
    makePredictor(open.predictor, config.modelPath);
    makeResamplePolicy(open.resamplePolicy, 1);
    // --cores wins; otherwise a loaded machine config sets the core
    // count, and the default stays the paper's single SMT core.
    open.numCores = cores.value_or(std::max(1, config.machineCores));
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
cmdHier(int argc, char **argv)
{
    int level = 2;
    BenchHarness harness(
        {.tool = "sossim hier",
         .flags = {Flag::into("--level", "N", "SMT level (default 2)",
                              level)}},
        argc, argv);
    const SimConfig &config = harness.config();
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
cmdMachine(int argc, char **argv)
{
    std::optional<int> cores_flag;
    BenchHarness harness(
        {.tool = "sossim machine",
         .flags = {Flag::into("--cores", "N",
                              "SMT cores on the machine (default 2 or "
                              "the machine config's)",
                              cores_flag)}},
        argc, argv);
    const SimConfig &config = harness.config();
    // --cores wins; otherwise a loaded machine config picks the
    // experiment its core count can host, defaulting to the 2-core CMP.
    const int cores = cores_flag.value_or(
        config.machineCores > 0 ? config.machineCores : 2);
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
cmdCluster(int argc, char **argv)
{
    ClusterConfig cluster;
    BenchHarness harness(
        {.tool = "sossim cluster",
         .flags =
             {Flag::into("--nodes", "N",
                         "machines in the cluster (default 2)",
                         cluster.numNodes),
              Flag::into("--dispatch", "P",
                         "dispatch policy: random, round-robin, "
                         "least-loaded, signature (default)",
                         cluster.dispatch),
              Flag::into("--arrivals", "N",
                         "jobs in the arrival trace (default 1000)",
                         cluster.numJobs),
              Flag::into("--process", "P",
                         "arrival process: poisson (default), mmpp, "
                         "diurnal",
                         cluster.process),
              Flag::into("--epoch", "N",
                         "timeslices per dispatch epoch (default 8)",
                         cluster.epochSlices),
              Flag::into("--level", "N",
                         "SMT level of every node (default 3)",
                         cluster.level),
              Flag::into("--cores", "N",
                         "SMT cores per node (default 1)",
                         cluster.numCores),
              Flag::into("--mean-job", "C",
                         "mean job length in paper cycles",
                         cluster.meanJobPaperCycles),
              Flag::into("--mean-interarrival", "C",
                         "front-door mean interarrival in paper "
                         "cycles (default derives the stable load)",
                         cluster.meanInterarrivalPaper),
              {"--classes", "SPEC",
               "SLA classes as name:weight:sizeFactor[,...]",
               [&](const std::string &value) {
                   cluster.classes = parseClasses(value);
               }}},
         // A repeated --machine-config gives each node its own file.
         .nodeMachines = &cluster.nodeMachineConfigs},
        argc, argv);
    const SimConfig &config = harness.config();
    // Fail fast on unknown registry names and unreadable model files,
    // before any simulation.
    makeDispatcher(cluster.dispatch, 0, config.modelPath);
    makePredictor(cluster.predictor, config.modelPath);
    cluster.seed = config.seed ^ 0xc105edULL;

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
cmdConfig(int argc, char **argv)
{
    const BenchOptions options =
        parseBenchArgs({.tool = "sossim config"}, argc, argv);
    std::fputs(renderConfig(options.config).c_str(), stdout);
    return 0;
}

/** One subcommand: its name, one help line and its entry point. */
struct Command
{
    const char *name;
    const char *summary;
    int (*run)(int argc, char **argv);
};

const Command commands[] = {
    {"workloads", "list the workload models", cmdWorkloads},
    {"experiments", "list the paper's experiments", cmdExperiments},
    {"params", "list --set keys", cmdParams},
    {"run", "run a throughput experiment", cmdRun},
    {"open", "naive-vs-SOS response times", cmdOpen},
    {"hier", "hierarchical symbiosis", cmdHier},
    {"machine", "machine-level SOS on a CMP of SMT cores", cmdMachine},
    {"cluster", "N machines behind a symbiosis-aware dispatcher",
     cmdCluster},
    {"config", "print the effective configuration", cmdConfig},
};

int
cmdHelp()
{
    std::printf("sossim -- symbiotic jobscheduling simulator (Snavely & "
                "Tullsen, ASPLOS 2000)\n\n"
                "usage: sossim <command> [options]\n\ncommands:\n");
    for (const Command &command : commands)
        std::printf("  %-12s %s\n", command.name, command.summary);
    std::printf("\n`sossim <command> --help` prints each command's "
                "options.\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return cmdHelp();
    const std::string name = argv[1];
    for (const Command &command : commands) {
        if (name == command.name)
            return command.run(argc - 1, argv + 1);
    }
    if (name == "help" || name == "--help" || name == "-h")
        return cmdHelp();
    fatal("unknown command '", name, "' (try `sossim help`)");
}
