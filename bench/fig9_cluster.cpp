/**
 * @file
 * Figure 9: cluster scale-out -- dispatch-policy comparison across
 * node counts, plus the host-thread scaling curve.
 *
 * The paper schedules jobs onto one SMT machine; this figure
 * extrapolates its symbiosis machinery one level up. A Cluster of N
 * single-machine open systems replays one deterministic arrival trace
 * per node count through each dispatch policy (random, round-robin,
 * least-loaded, signature), so policy differences are purely routing:
 * the signature dispatcher reads the same per-node counter signatures
 * the SOS kernel samples, and wins exactly when symbiosis-aware
 * placement beats load balancing alone.
 *
 * The manifest carries, per (nodes, policy), the cluster's streaming
 * response-time percentiles (cluster-wide and per class) and per-node
 * utilization. Wall-clock numbers never enter the manifest: when
 * --bench FILE is given, a second pass re-runs the largest
 * configuration under 1, 2 and 4 host workers (SOS_JOBS-style
 * fan-out, one ThreadPool task per node), asserts the results stay
 * bit-identical, and records the scaling curve as the "cluster"
 * section of the "sos.bench" document.
 *
 * Scale flags, named as `sossim cluster` names them (the defaults
 * keep a laptop run in minutes; CI smoke and large-trace runs
 * override them):
 *   --arrivals N   arrivals per run          (default 400)
 *   --nodes N      single node count         (default 2 and 4)
 *   --dispatch P   single policy             (default all four, plus
 *                                           learned with a --model /
 *                                           SOS_MODEL)
 *   --mean-job C   mean job, paper cycles    (default 30M)
 * A 10^5-10^6 job trace is a matter of --arrivals plus a coarser
 * SOS_CYCLE_SCALE (see EXPERIMENTS.md "Figure 9").
 */

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats_util.hh"
#include "sim/bench_harness.hh"
#include "sim/reporting.hh"

namespace {

using namespace sos;

/** Exact percentile over the drained responses (doubles, cycles). */
double
responsePercentile(const ClusterResult &result, double pct)
{
    std::vector<double> xs;
    xs.reserve(result.responseByArrival.size());
    for (std::uint64_t response : result.responseByArrival)
        xs.push_back(static_cast<double>(response));
    return percentile(std::move(xs), pct);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace sos;

    int jobs = 400;
    std::uint64_t mean_job = 30000000ULL;
    std::optional<int> nodes_flag;
    std::string dispatch;
    // Cluster runs replay whole open systems per node; default to a
    // coarser scale than even the fig8 open-system bench.
    BenchHarness harness(
        {.tool = "fig9_cluster",
         .cycleScale = 1000,
         .flags = {Flag::into("--arrivals", "N",
                              "arrivals per run (default 400)", jobs),
                   Flag::into("--mean-job", "C",
                              "mean job length in paper cycles "
                              "(default 30000000)",
                              mean_job),
                   Flag::into("--nodes", "N",
                              "run one node count (default 2 and 4)",
                              nodes_flag),
                   Flag::into("--dispatch", "P",
                              "run one dispatch policy (default all)",
                              dispatch)}},
        argc, argv);
    SimConfig &config = harness.config();

    std::vector<int> node_counts = {2, 4};
    if (nodes_flag)
        node_counts = {*nodes_flag};
    std::vector<std::string> policies = dispatcherNames();
    // The learned dispatcher needs a trained model (--model / SOS_MODEL).
    if (config.modelPath.empty())
        std::erase(policies, "learned");
    if (!dispatch.empty())
        policies = {dispatch};

    const auto clusterConfig = [&](int nodes,
                                   const std::string &policy) {
        ClusterConfig cc;
        cc.numNodes = nodes;
        cc.dispatch = policy;
        cc.numJobs = jobs;
        cc.meanJobPaperCycles = mean_job;
        // Same seed across policies: per node count, every policy
        // replays the identical arrival trace, so the comparison is
        // pure routing.
        cc.seed = config.seed ^ mix64(static_cast<std::uint64_t>(
                                    0xf19cULL + nodes));
        return cc;
    };

    printBanner(
        "Figure 9: cluster scale-out -- dispatch policy x node count "
        "(" + std::to_string(jobs) + " arrivals)");
    TablePrinter table({"nodes", "policy", "mean resp", "p50", "p95",
                        "p99", "makespan", "util%"},
                       {5, 12, 11, 9, 9, 9, 10, 6});
    table.printHeader();

    const stats::Group by_nodes = harness.group("nodes");
    for (int nodes : node_counts) {
        const stats::Group nodes_group =
            by_nodes.group(std::to_string(nodes));
        for (const std::string &policy : policies) {
            Cluster cluster(config, clusterConfig(nodes, policy));
            const ClusterResult result = cluster.run(
                harness.wantsTrace() ? &harness.trace() : nullptr);
            cluster.publishStats(nodes_group.group(policy));

            double util = 0.0;
            for (const ClusterNodeSummary &node : result.nodes)
                util += node.utilization;
            util /= static_cast<double>(result.nodes.size());
            table.printRow(
                {std::to_string(nodes), policy,
                 fmtCycles(static_cast<std::uint64_t>(
                     result.meanResponseCycles)),
                 fmtCycles(static_cast<std::uint64_t>(
                     responsePercentile(result, 50.0))),
                 fmtCycles(static_cast<std::uint64_t>(
                     responsePercentile(result, 95.0))),
                 fmtCycles(static_cast<std::uint64_t>(
                     responsePercentile(result, 99.0))),
                 fmtCycles(result.totalCycles),
                 fmt(100.0 * util, 1)});
        }
    }

    // Host-thread scaling curve: opt-in via --bench, timed outside
    // the manifest. The largest node count under the signature policy
    // is re-run at 1, 2 and 4 workers; results must stay bit-identical
    // (the cluster determinism contract), only the wall clock may move.
    if (harness.wantsBench()) {
        const int nodes = node_counts.back();
        const std::string policy = "signature";
        std::printf("\nscaling curve: %d nodes, %s dispatch\n", nodes,
                    policy.c_str());

        const stats::Group curve = harness.bench("cluster");
        curve.scalar("nodes", "cluster nodes") =
            static_cast<std::uint64_t>(nodes);
        curve.scalar("jobs", "arrivals per run") =
            static_cast<std::uint64_t>(jobs);
        curve.info("policy", "dispatch policy") = policy;
        double serial = 0.0;
        std::vector<ClusterResult> results;
        for (int w : {1, 2, 4}) {
            SimConfig run_config = config;
            run_config.jobs = w;
            Cluster cluster(run_config,
                            clusterConfig(nodes, policy));
            const auto start = std::chrono::steady_clock::now();
            results.push_back(cluster.run());
            const double elapsed =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            if (w == 1)
                serial = elapsed;
            std::printf("  %d worker%s  %8.2fs  (speedup %.2fx)\n", w,
                        w == 1 ? ": " : "s:", elapsed,
                        serial / elapsed);
            const stats::Group point =
                curve.group("workers" + std::to_string(w));
            point.value("elapsed_seconds", "host wall-clock") = elapsed;
            point.value("speedup", "1-worker time over this one") =
                serial / elapsed;
        }
        for (const ClusterResult &result : results) {
            SOS_ASSERT(result.responseByArrival ==
                               results.front().responseByArrival &&
                           result.nodeByArrival ==
                               results.front().nodeByArrival,
                       "cluster results drifted across worker counts");
        }
    }

    std::printf("\n(Extrapolation: the paper stops at one SMT "
                "machine; the signature dispatcher applies its "
                "counter-based symbiosis reasoning across nodes.)\n");
    return harness.finish();
}
