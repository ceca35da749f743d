/**
 * @file
 * Figure 8: open-system response time vs arrival rate (lambda) on a
 * CMP of SMT cores, at 2 and 4 cores.
 *
 * The same OpenRun event loop that produces Figures 5-6 on one SMT
 * core runs here on a CMP EngineBackend: every candidate coschedule
 * assigns a job group (and a per-core schedule over it) to each core,
 * and sample phases profile the candidates on parallel forks of the
 * whole machine. The paper stops at one core for its open system;
 * this figure extrapolates its methodology to the CMP substrate of
 * Figure 7.
 *
 * Per core count, one representative SOS run publishes its machine's
 * per-core cache groups (machine.core<k>) from its result and, when
 * requested, its decision trace from a buffer of its own, appended in
 * core-count order.
 */

#include <cstdio>
#include <vector>

#include "common/stats_util.hh"
#include "common/thread_pool.hh"
#include "sim/bench_harness.hh"
#include "sim/open_system.hh"
#include "sim/reporting.hh"

int
main(int argc, char **argv)
{
    using namespace sos;

    // Open-system runs are long; default to a coarser scale than the
    // throughput benches (SOS_CYCLE_SCALE and --set still override it).
    BenchHarness harness(
        {.tool = "fig8_open_multicore", .cycleScale = 200}, argc, argv);
    SimConfig &config = harness.config();
    const int level = 2;
    const int traces = 2;
    const std::vector<int> core_counts = {2, 4};
    const std::vector<double> factors = {0.85, 1.0, 1.4};

    printBanner("Figure 8: open-system response time vs lambda "
                "(CMP of SMT-" +
                std::to_string(level) + " cores)");
    TablePrinter table({"cores", "lambda(paper)", "load",
                        "improve% (avg)", "per trace", "mean N"},
                       {6, 13, 6, 14, 12, 7});
    table.printHeader();

    // One pool for the whole figure. Every core count derives its
    // stable arrival rate from one capacity probe of the SMT-2 core;
    // then every (cores, lambda, trace) run is independent: fan them
    // out, each run's sample phases nesting on the same pool.
    ThreadPool pool(resolveJobs(config.jobs));
    const double capacity = measuredCapacity(config, level, pool);
    // Plus one representative SOS run per core count, tracing into a
    // buffer of its own.
    std::vector<OpenSystemConfig> points;
    std::vector<OpenSystemConfig> representatives;
    std::vector<stats::EventTrace> decisions(core_counts.size());
    for (std::size_t c = 0; c < core_counts.size(); ++c) {
        const int cores = core_counts[c];
        OpenSystemConfig base;
        base.level = level;
        base.numCores = cores;
        base.numJobs = 24;
        const std::uint64_t stable = base.stableInterarrivalPaper(capacity);
        for (double factor : factors) {
            for (int t = 0; t < traces; ++t) {
                OpenSystemConfig open = base;
                open.meanInterarrivalPaper = static_cast<std::uint64_t>(
                    factor * static_cast<double>(stable));
                open.seed = config.seed ^
                            static_cast<std::uint64_t>(
                                1009 * cores + 31 * t) ^
                            open.meanInterarrivalPaper;
                points.push_back(open);
            }
        }
        OpenSystemConfig representative = base;
        representative.numJobs = 16;
        representative.meanInterarrivalPaper = stable;
        representative.seed =
            config.seed ^ static_cast<std::uint64_t>(7001 * cores);
        representatives.push_back(representative);
        decisions[c].setPhaseStride(config.traceSample);
    }
    std::vector<ResponseComparison> comparisons(points.size());
    std::vector<OpenSystemResult> representativeRuns(core_counts.size());
    pool.run(points.size() + core_counts.size(), [&](std::size_t i) {
        if (i < points.size()) {
            comparisons[i] = compareResponseTimes(config, points[i], pool);
            return;
        }
        const std::size_t c = i - points.size();
        const OpenSystemConfig &open = representatives[c];
        representativeRuns[c] = runOpenSystem(
            config, open, makeArrivalTrace(config, open, pool),
            OpenPolicy::Sos, pool,
            harness.wantsTrace() ? &decisions[c] : nullptr);
    });

    const stats::Group by_cores = harness.group("cores");
    std::size_t cursor = 0;
    for (int cores : core_counts) {
        const stats::Group cores_group =
            by_cores.group(std::to_string(cores));
        for (double factor : factors) {
            RunningStat improvement;
            RunningStat mean_n;
            std::string per_trace;
            const stats::Group point =
                cores_group.group("x" + fmt(factor, 2));
            point.scalar("interarrival_paper_cycles",
                         "mean interarrival time in paper cycles") =
                points[cursor].meanInterarrivalPaper;
            stats::Distribution &per_trace_dist = point.distribution(
                "improvement_pct", "per-trace SOS improvement");
            for (int t = 0; t < traces; ++t, ++cursor) {
                const ResponseComparison &comparison =
                    comparisons[cursor];
                improvement.push(comparison.improvementPct);
                per_trace_dist.sample(comparison.improvementPct);
                mean_n.push(comparison.sos.meanJobsInSystem);
                if (t > 0)
                    per_trace += " ";
                per_trace += fmt(comparison.improvementPct, 1);
            }
            point.value("mean_jobs_in_system",
                        "mean queue length (Little's law)") =
                mean_n.mean();
            table.printRow(
                {std::to_string(cores),
                 fmtCycles(points[cursor - 1].meanInterarrivalPaper),
                 factor < 1.0 ? "heavy"
                              : (factor > 1.2 ? "light" : "ref"),
                 fmt(improvement.mean(), 1), per_trace,
                 fmt(mean_n.mean(), 1)});
        }
    }

    for (std::size_t c = 0; c < core_counts.size(); ++c) {
        const OpenSystemResult &sos = representativeRuns[c];
        const stats::Group machine =
            by_cores.group(std::to_string(core_counts[c]))
                .group("machine");
        machine.info("backend", "engine backend substrate") = sos.backend;
        machine.scalar("sample_phases", "sample phases run") =
            static_cast<std::uint64_t>(sos.samplePhases);
        machine.value("mean_response_cycles",
                      "mean job response time") =
            sos.meanResponseCycles;
        sos.memory.registerStats(machine);
        harness.trace().append(decisions[c]);
    }

    std::printf("\n(Extrapolation: the paper's Figures 5-6 stop at "
                "one SMT core; response-time ratios at 2 and 4 cores "
                "use the same trace-replay methodology.)\n");
    return harness.finish();
}
