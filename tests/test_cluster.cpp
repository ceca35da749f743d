/**
 * @file
 * Cluster-layer regressions: deterministic arrival streams for every
 * arrival process, dispatcher routing invariants, and the cluster's
 * own determinism contract -- identical seeds produce byte-identical
 * decision traces and run manifests at every SOS_JOBS worker count
 * (1, 2, 8), which is what lets the node fan-out parallelize freely.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/arrival.hh"
#include "cluster/cluster.hh"
#include "cluster/dispatch.hh"
#include "model/features.hh"
#include "model/trainer.hh"
#include "sim/params_io.hh"
#include "stats/manifest.hh"
#include "stats/stats.hh"
#include "stats/trace.hh"

namespace sos {
namespace {

ArrivalSpec
smallSpec(const std::string &process)
{
    ArrivalSpec spec;
    spec.process = process;
    spec.numJobs = 64;
    spec.meanInterarrivalCycles = 40000.0;
    spec.meanJobCycles = 60000.0;
    spec.seed = 77;
    return spec;
}

TEST(ClusterArrivals, SameSeedIsByteIdenticalPerProcess)
{
    const SimConfig sim = makeFastConfig();
    for (const std::string &process : arrivalProcessNames()) {
        const std::vector<ClusterArrival> a =
            makeClusterArrivals(sim, smallSpec(process));
        const std::vector<ClusterArrival> b =
            makeClusterArrivals(sim, smallSpec(process));
        EXPECT_EQ(a, b) << process;
        ASSERT_EQ(a.size(), 64u) << process;
        for (std::size_t i = 1; i < a.size(); ++i)
            EXPECT_GE(a[i].arrivalCycle, a[i - 1].arrivalCycle);
        for (const ClusterArrival &arrival : a) {
            EXPECT_GT(arrival.sizeInstructions, 0u);
            EXPECT_EQ(arrival.klass, 0);
            EXPECT_FALSE(arrival.workload.empty());
        }
    }
}

TEST(ClusterArrivals, SeedsAndProcessesChangeTheStream)
{
    const SimConfig sim = makeFastConfig();
    ArrivalSpec other = smallSpec("poisson");
    other.seed = 78;
    EXPECT_NE(makeClusterArrivals(sim, smallSpec("poisson")),
              makeClusterArrivals(sim, other));
    EXPECT_NE(makeClusterArrivals(sim, smallSpec("poisson")),
              makeClusterArrivals(sim, smallSpec("mmpp")));
}

TEST(ClusterArrivals, ClassesAreDrawnAndSized)
{
    const SimConfig sim = makeFastConfig();
    ArrivalSpec spec = smallSpec("poisson");
    spec.numJobs = 200;
    spec.classes = {{"batch", 3.0, 2.0}, {"interactive", 1.0, 0.25}};
    const std::vector<ClusterArrival> arrivals =
        makeClusterArrivals(sim, spec);
    int batch = 0;
    int interactive = 0;
    for (const ClusterArrival &arrival : arrivals) {
        ASSERT_GE(arrival.klass, 0);
        ASSERT_LT(arrival.klass, 2);
        (arrival.klass == 0 ? batch : interactive)++;
    }
    // 3:1 weights; both classes must appear and batch must dominate.
    EXPECT_GT(interactive, 0);
    EXPECT_GT(batch, 2 * interactive);
}

std::vector<NodeView>
threeNodes()
{
    std::vector<NodeView> views(3);
    for (int k = 0; k < 3; ++k)
        views[static_cast<std::size_t>(k)].id = k;
    return views;
}

ClusterArrival
someArrival()
{
    ClusterArrival arrival;
    arrival.workload = "SWIM";
    arrival.sizeInstructions = 100000;
    return arrival;
}

TEST(Dispatchers, RoundRobinCycles)
{
    const auto dispatcher = makeDispatcher("round-robin", 1);
    const std::vector<NodeView> views = threeNodes();
    const ClusterArrival arrival = someArrival();
    for (int i = 0; i < 7; ++i)
        EXPECT_EQ(dispatcher->pick(arrival, views), i % 3);
}

TEST(Dispatchers, LeastLoadedPicksSmallestPool)
{
    const auto dispatcher = makeDispatcher("least-loaded", 1);
    std::vector<NodeView> views = threeNodes();
    views[0].poolSize = 2;
    views[1].poolSize = 1;
    views[2].poolSize = 2;
    EXPECT_EQ(dispatcher->pick(someArrival(), views), 1);
    // Pool tie broken by queued work.
    views[1].poolSize = 2;
    views[2].queuedWork = 50;
    views[0].queuedWork = 100;
    views[1].queuedWork = 100;
    EXPECT_EQ(dispatcher->pick(someArrival(), views), 2);
}

TEST(Dispatchers, RandomStaysInRangeAndIsSeeded)
{
    const auto a = makeDispatcher("random", 42);
    const auto b = makeDispatcher("random", 42);
    const std::vector<NodeView> views = threeNodes();
    const ClusterArrival arrival = someArrival();
    for (int i = 0; i < 50; ++i) {
        const int pick = a->pick(arrival, views);
        EXPECT_GE(pick, 0);
        EXPECT_LT(pick, 3);
        EXPECT_EQ(pick, b->pick(arrival, views));
    }
}

TEST(Dispatchers, SignatureFallsBackToLoadWithoutSamples)
{
    // With no counter signatures yet (cycles == 0) the symbiosis
    // terms vanish and the signature policy must degrade to load
    // balancing, not to an arbitrary node.
    const auto dispatcher = makeDispatcher("signature", 1);
    std::vector<NodeView> views = threeNodes();
    views[0].poolSize = 3;
    views[1].poolSize = 3;
    views[2].poolSize = 1;
    EXPECT_EQ(dispatcher->pick(someArrival(), views), 2);
}

TEST(Dispatchers, RegistryListsEveryPolicy)
{
    for (const std::string &name : dispatcherNames())
        EXPECT_EQ(makeDispatcher(name, 7)->name(), name);
}

/** A cluster run small enough for a unit test but with real forks. */
ClusterConfig
smallCluster()
{
    ClusterConfig config;
    config.numNodes = 2;
    config.numJobs = 10;
    config.level = 2;
    config.meanJobPaperCycles = 20000000;
    config.seed = 9001;
    config.classes = {{"batch", 1.0, 1.5}, {"interactive", 1.0, 0.5}};
    return config;
}

/** One cluster run rendered as (decision trace, manifest). */
struct Rendered
{
    std::string trace;
    std::string manifest;
    ClusterResult result;
};

/**
 * smallCluster() on two machines that differ in their L2, so two
 * capacity probes share one set-up batch.
 */
ClusterConfig
heterogeneousCluster()
{
    ClusterConfig config = smallCluster();
    for (std::uint32_t l2_bytes : {512u * 1024u, 1024u * 1024u}) {
        SimConfig node = makeFastConfig();
        node.mem.l2.sizeBytes = l2_bytes;
        config.nodeConfigs.push_back(node);
    }
    return config;
}

Rendered
renderRun(int workers, const ClusterConfig &config = smallCluster())
{
    SimConfig sim = makeFastConfig();
    sim.jobs = workers;
    Cluster cluster(sim, config);
    stats::EventTrace events;
    Rendered rendered;
    rendered.result = cluster.run(&events);

    stats::Registry registry;
    cluster.publishStats(stats::Group(registry).group("cluster"));
    stats::Manifest manifest;
    manifest.tool = "cluster_determinism";
    manifest.gitRev = "golden"; // pin the only host-dependent field
    manifest.seed = sim.seed;
    manifest.config = configPairs(sim);
    rendered.trace = events.render();
    rendered.manifest = renderManifest(manifest, registry);
    return rendered;
}

TEST(ClusterDeterminism, WorkerCountsAreByteIdentical)
{
    // The core determinism contract: SOS_JOBS=1/2/8 only change how
    // many nodes advance concurrently, never what they compute.
    const Rendered serial = renderRun(1);
    EXPECT_FALSE(serial.trace.empty());
    for (int workers : {2, 8}) {
        const Rendered threaded = renderRun(workers);
        EXPECT_EQ(serial.trace, threaded.trace) << workers;
        EXPECT_EQ(serial.manifest, threaded.manifest) << workers;
    }
}

TEST(ClusterDeterminism, HeterogeneousNodesAreByteIdenticalAcrossWorkers)
{
    // Nodes with their own configs probe their capacities side by side
    // in one batch; the worker count must not change what they find.
    const ClusterConfig config = heterogeneousCluster();
    const Rendered serial = renderRun(1, config);
    EXPECT_FALSE(serial.trace.empty());
    for (int workers : {2, 8}) {
        const Rendered threaded = renderRun(workers, config);
        EXPECT_EQ(serial.trace, threaded.trace) << workers;
        EXPECT_EQ(serial.manifest, threaded.manifest) << workers;
    }
}

TEST(ClusterDeterminism, RunDrainsEveryArrival)
{
    const Rendered run = renderRun(2);
    const ClusterResult &result = run.result;
    EXPECT_EQ(result.completed, 10u);
    EXPECT_GT(result.epochs, 0u);
    std::size_t dispatched = 0;
    for (const ClusterNodeSummary &node : result.nodes) {
        EXPECT_EQ(node.dispatched, node.completed);
        EXPECT_GE(node.utilization, 0.0);
        EXPECT_LE(node.utilization, 1.0);
        dispatched += node.dispatched;
    }
    EXPECT_EQ(dispatched, 10u);
    for (std::size_t i = 0; i < result.responseByArrival.size(); ++i) {
        EXPECT_GT(result.responseByArrival[i], 0u) << i;
        EXPECT_GE(result.nodeByArrival[i], 0) << i;
        EXPECT_LT(result.nodeByArrival[i], 2) << i;
    }
}

TEST(ClusterDeterminism, ManifestCarriesPercentilesAndNodes)
{
    const Rendered run = renderRun(1);
    // Cluster-wide and per-class streaming quantiles plus per-node
    // groups -- the shape the CI schema check validates end-to-end.
    EXPECT_NE(run.manifest.find("\"response_cycles\""),
              std::string::npos);
    EXPECT_NE(run.manifest.find("\"p95\""), std::string::npos);
    EXPECT_NE(run.manifest.find("\"batch\""), std::string::npos);
    EXPECT_NE(run.manifest.find("\"interactive\""),
              std::string::npos);
    EXPECT_NE(run.manifest.find("\"node0\""), std::string::npos);
    EXPECT_NE(run.manifest.find("\"node1\""), std::string::npos);
    EXPECT_NE(run.manifest.find("\"utilization\""),
              std::string::npos);
    // Dispatch decisions are tagged with their target node.
    EXPECT_NE(run.trace.find("\"event\":\"dispatch_epoch\""),
              std::string::npos);
    EXPECT_NE(run.trace.find("\"event\":\"dispatch\""),
              std::string::npos);
    EXPECT_NE(run.trace.find("\"node\":"), std::string::npos);
}

/** Fit a tiny linear WS model on synthetic rows; return its path. */
std::string
writeTinyModel()
{
    const std::vector<std::string> &names = model::featureNames();
    std::vector<model::TrainRow> rows;
    for (int r = 0; r < 24; ++r) {
        model::TrainRow row;
        for (std::size_t f = 0; f < names.size(); ++f) {
            row.features.push_back(
                static_cast<double>((r * 7 + static_cast<int>(f) * 3) %
                                    11) /
                10.0);
        }
        row.ws = 1.0 + 0.05 * row.features[0] - 0.02 * row.features[1];
        row.experiment = "synthetic";
        row.index = r;
        rows.push_back(std::move(row));
    }
    const auto ws_model =
        model::fitLinearModel(names, rows, model::FitOptions{});
    const std::string path = ::testing::TempDir() + "cluster_model.txt";
    ws_model->save(path);
    return path;
}

TEST(ClusterLearned, ModelPathComesFromTheConfig)
{
    // --model reaches the registry-built dispatcher and the nodes'
    // predictors through SimConfig alone; no environment involved.
    ::unsetenv("SOS_MODEL");
    SimConfig sim = makeFastConfig();
    sim.modelPath = writeTinyModel();
    ClusterConfig config = smallCluster();
    config.dispatch = "learned";
    Cluster cluster(sim, config);
    const ClusterResult result = cluster.run(nullptr);
    EXPECT_EQ(result.completed,
              static_cast<std::size_t>(config.numJobs));
}

TEST(ClusterLearned, UnreadableModelPathIsNamed)
{
    ::unsetenv("SOS_MODEL");
    SimConfig sim = makeFastConfig();
    sim.modelPath = "/nonexistent/model.txt";
    ClusterConfig config = smallCluster();
    config.dispatch = "learned";
    // Re-execute rather than fork: sanitizer runtimes keep threads.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(Cluster(sim, config),
                 "/nonexistent/model.txt:0: cannot open model file");
}

} // namespace
} // namespace sos
