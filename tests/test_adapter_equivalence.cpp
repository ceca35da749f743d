/**
 * @file
 * Adapter-equivalence goldens: the closed-system experiment drivers
 * (batch, hierarchical, machine) must keep producing byte-identical
 * run manifests as their SOS loops migrate onto the shared kernel,
 * together with their scheduler decision traces (policy evaluations
 * included), and the open system (one SMT core, a CMP, sampled
 * simulation and a cluster of nodes) must keep its results and
 * decision traces.
 *
 * The golden files under tests/golden/ were generated from the
 * pre-kernel drivers (set SOS_REGEN_GOLDEN=1 to regenerate); any
 * refactor of the sample/symbios pipeline must reproduce them to the
 * byte, for every worker count (the SOS_JOBS=1/2/8 acceptance check,
 * run in-process via config.jobs).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "common/thread_pool.hh"
#include "core/thread_to_core.hh"
#include "sim/batch_experiment.hh"
#include "sim/hierarchical_experiment.hh"
#include "sim/open_system.hh"
#include "sim/params_io.hh"
#include "stats/manifest.hh"
#include "stats/stats.hh"
#include "stats/trace.hh"

namespace sos {
namespace {

/** Render a manifest with everything host-dependent pinned. */
std::string
render(const char *tool, const SimConfig &config,
       const stats::Registry &registry)
{
    stats::Manifest manifest;
    manifest.tool = tool;
    manifest.gitRev = "golden"; // goldens must not depend on the
                                // building checkout's revision
    manifest.seed = config.seed;
    manifest.config = configPairs(config);
    return renderManifest(manifest, registry);
}

std::string
batchManifest(int jobs)
{
    SimConfig config = makeFastConfig();
    config.jobs = jobs;
    stats::Registry registry;
    const stats::Group experiments =
        stats::Group(registry).group("experiments");
    std::string document;
    {
        // Both a full-space sweep (3 of 3 schedules) and a sampled
        // one (10 of 60), the two shapes the kernel must preserve.
        BatchExperiment small(experimentByLabel("Jsb(4,2,2)"), config);
        BatchExperiment sampled(experimentByLabel("Jsb(6,3,1)"),
                                config);
        for (BatchExperiment *exp : {&small, &sampled}) {
            exp->runSamplePhase();
            exp->runSymbiosValidation();
            exp->publishStats(experiments.group(
                stats::sanitizeSegment(exp->spec().label)));
        }
        // Stats bind to the experiments' storage: render in scope.
        document = render("adapter_equivalence_batch", config,
                          registry);
    }
    return document;
}

std::string
hierarchicalManifest(int jobs)
{
    SimConfig config = makeFastConfig();
    config.jobs = jobs;
    stats::Registry registry;
    const stats::Group experiments =
        stats::Group(registry).group("experiments");
    std::string document;
    {
        const HierarchicalSpec &spec = hierarchicalExperiments()[0];
        HierarchicalExperiment exp(spec, config, 6);
        exp.run(200000);
        exp.publishStats(
            experiments.group(stats::sanitizeSegment(spec.label)));
        document = render("adapter_equivalence_hierarchical", config,
                          registry);
    }
    return document;
}

std::string
machineManifest(int jobs)
{
    SimConfig config = makeFastConfig();
    config.jobs = jobs;
    stats::Registry registry;
    const stats::Group experiments =
        stats::Group(registry).group("experiments");
    std::string document;
    {
        const ExperimentSpec spec{
            .label = "Jm(4,2,2,2)",
            .entries = {{"FP"}, {"MG"}, {"GCC"}, {"IS"}},
            .numCores = 2,
        };
        BatchExperiment exp(spec, config);
        exp.runSamplePhase();
        exp.runSymbiosValidation();
        exp.publishStats(
            experiments.group(stats::sanitizeSegment(spec.label)));
        document = render("adapter_equivalence_machine", config,
                          registry);
    }
    return document;
}

/**
 * The closed-system decision traces: the batch pair's sample
 * candidates (with their model features), predictor votes and symbios
 * results, then a 2-core machine's traces after every thread-to-core
 * policy has been evaluated.
 */
std::string
closedTraceManifest(int jobs)
{
    SimConfig config = makeFastConfig();
    config.jobs = jobs;
    stats::Registry registry;
    const stats::Group closed = stats::Group(registry).group("closed");

    stats::EventTrace batch_events;
    for (const char *label : {"Jsb(4,2,2)", "Jsb(6,3,1)"}) {
        BatchExperiment exp(experimentByLabel(label), config);
        exp.runSamplePhase();
        exp.runSymbiosValidation();
        exp.recordTrace(batch_events);
    }
    closed.info("batch", "batch decision trace (JSONL)") =
        batch_events.render();

    const ExperimentSpec spec{
        .label = "Jm(4,2,2,2)",
        .entries = {{"FP"}, {"MG"}, {"GCC"}, {"IS"}},
        .numCores = 2,
    };
    BatchExperiment exp(spec, config);
    exp.runSamplePhase();
    exp.runSymbiosValidation();
    for (const std::string &name : threadToCorePolicyNames())
        exp.evaluatePolicy(name);
    stats::EventTrace machine_events;
    exp.recordTrace(machine_events);
    closed.info("machine", "machine decision trace (JSONL)") =
        machine_events.render();

    return render("adapter_equivalence_closed_trace", config, registry);
}

/** Register one open-system run's result under @p group. */
void
publishOpenResult(const stats::Group &group,
                  const OpenSystemResult &result)
{
    group.scalar("completed", "jobs completed") =
        static_cast<std::uint64_t>(result.completed);
    group.value("mean_response_cycles", "mean job response time") =
        result.meanResponseCycles;
    group.value("mean_jobs_in_system", "mean queue length") =
        result.meanJobsInSystem;
    group.scalar("total_cycles", "simulated cycles to drain") =
        result.totalCycles;
    group.scalar("sample_cycles", "cycles spent in sample phases") =
        result.sampleCycles;
    group.scalar("sample_phases", "sample phases run") =
        static_cast<std::uint64_t>(result.samplePhases);
    group.scalar("resamples_job_change",
                 "resamples from arrivals/departures") =
        static_cast<std::uint64_t>(result.resamplesOnJobChange);
    group.scalar("resamples_timer", "resamples from the backoff timer") =
        static_cast<std::uint64_t>(result.resamplesOnTimer);
    std::string responses;
    for (std::uint64_t response : result.responseByArrival) {
        if (!responses.empty())
            responses += ',';
        responses += std::to_string(response);
    }
    group.info("responses", "response cycles per arrival") = responses;
}

/** A small open system: at most 8 jobs, short job lengths. */
OpenSystemConfig
smallOpenSystem(int level, int cores, std::uint64_t seed)
{
    OpenSystemConfig config;
    config.level = level;
    config.numCores = cores;
    config.numJobs = 8;
    config.meanJobPaperCycles = 40000000;
    config.seed = seed;
    return config;
}

/**
 * One SOS run, published with its machine's memory counters and the
 * decision trace.
 */
void
publishSosRun(const stats::Group &group, const SimConfig &sim,
              const OpenSystemConfig &config, ThreadPool &pool)
{
    const std::vector<JobArrival> arrivals =
        makeArrivalTrace(sim, config, pool);
    stats::EventTrace events;
    const OpenSystemResult result = runOpenSystem(
        sim, config, arrivals, OpenPolicy::Sos, pool, &events);
    group.info("backend", "engine backend substrate") = result.backend;
    group.scalar("interarrival_paper_cycles",
                 "mean interarrival time in paper cycles") =
        config.meanInterarrivalPaper;
    publishOpenResult(group.group("sos"), result);
    group.info("trace", "SOS decision trace (JSONL)") = events.render();
    result.memory.registerStats(group.group("machine"));
}

std::string
openManifest(int jobs)
{
    SimConfig config = makeFastConfig();
    config.jobs = jobs;
    stats::Registry registry;
    const stats::Group open = stats::Group(registry).group("open");
    ThreadPool pool(jobs);

    // The paper's substrate at level 3 with a derived interarrival
    // time (the capacity probe, resolved once): naive and SOS on the
    // same trace.
    {
        OpenSystemConfig system = smallOpenSystem(3, 1, 0x0a11);
        system.meanInterarrivalPaper =
            system.effectiveInterarrivalPaper(config, pool);
        const stats::Group smt = open.group("smt3");
        publishSosRun(smt, config, system, pool);
        publishOpenResult(
            smt.group("naive"),
            runOpenSystem(config, system,
                          makeArrivalTrace(config, system, pool),
                          OpenPolicy::Naive, pool));
    }

    // A CMP of two SMT-2 cores under dense arrivals.
    {
        OpenSystemConfig system = smallOpenSystem(2, 2, 0x0b22);
        system.meanInterarrivalPaper = system.meanJobPaperCycles / 4;
        publishSosRun(open.group("cmp2x2"), config, system, pool);
    }

    // One SMT core with sampled simulation on (live slices and forks).
    {
        SimConfig sampled = config;
        sampled.sample = parseSampleWindows("2250:62:188");
        OpenSystemConfig system = smallOpenSystem(3, 1, 0x0c33);
        system.meanInterarrivalPaper = system.meanJobPaperCycles / 4;
        const stats::Group group = open.group("sampled");
        group.info("sample", "sampled-simulation windows") =
            renderSampleWindows(sampled.sample);
        publishSosRun(group, sampled, system, pool);
    }

    // Two cluster nodes behind the signature dispatcher.
    ClusterConfig cluster_config;
    cluster_config.numNodes = 2;
    cluster_config.numJobs = 8;
    cluster_config.level = 2;
    cluster_config.meanJobPaperCycles = 20000000;
    cluster_config.seed = 0x0d44;
    cluster_config.classes = {{"batch", 1.0, 1.5},
                              {"interactive", 1.0, 0.5}};
    Cluster cluster(config, cluster_config);
    stats::EventTrace cluster_events;
    const ClusterResult result = cluster.run(&cluster_events);
    const stats::Group cluster_group = open.group("cluster");
    cluster.publishStats(cluster_group);
    std::string nodes;
    for (int node : result.nodeByArrival) {
        if (!nodes.empty())
            nodes += ',';
        nodes += std::to_string(node);
    }
    cluster_group.info("node_by_arrival", "node each arrival ran on") =
        nodes;
    cluster_group.info("trace", "dispatch and node decision trace") =
        cluster_events.render();

    return render("adapter_equivalence_open", config, registry);
}

std::string
goldenPath(const std::string &name)
{
    return std::string(SOS_GOLDEN_DIR) + "/" + name + ".json";
}

void
checkAgainstGolden(const std::string &name,
                   const std::function<std::string(int)> &make)
{
    // Worker-count invariance first: the golden would be meaningless
    // if the document depended on the sweep's thread count.
    const std::string document = make(1);
    EXPECT_EQ(make(2), document) << name << ": jobs=2 differs";
    EXPECT_EQ(make(8), document) << name << ": jobs=8 differs";

    const std::string path = goldenPath(name);
    if (std::getenv("SOS_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << document;
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden " << path
        << " (generate with SOS_REGEN_GOLDEN=1)";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(document, golden.str())
        << name << ": manifest diverged from the pre-kernel driver";
}

TEST(AdapterEquivalence, BatchManifestMatchesGolden)
{
    checkAgainstGolden("batch", batchManifest);
}

TEST(AdapterEquivalence, HierarchicalManifestMatchesGolden)
{
    checkAgainstGolden("hierarchical", hierarchicalManifest);
}

TEST(AdapterEquivalence, MachineManifestMatchesGolden)
{
    checkAgainstGolden("machine", machineManifest);
}

TEST(AdapterEquivalence, ClosedTracesMatchGolden)
{
    checkAgainstGolden("closed_trace", closedTraceManifest);
}

TEST(AdapterEquivalence, OpenManifestMatchesGolden)
{
    checkAgainstGolden("open", openManifest);
}

} // namespace
} // namespace sos
