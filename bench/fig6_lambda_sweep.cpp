/**
 * @file
 * Reproduces Figure 6: response-time improvement of SOS over the
 * naive scheduler for various mean interarrival times (lambda), with
 * the SMT level held constant at 3. Several arrival traces are
 * averaged per point, as in Figure 5.
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

    BenchHarness harness(
        {.tool = "fig6_lambda_sweep", .cycleScale = 200}, argc, argv);
    SimConfig &config = harness.config();
    const int level = 3;
    const int traces = 3;

    // One pool for the whole figure: the capacity probe, then every
    // run with its sample phases nested.
    ThreadPool pool(resolveJobs(config.jobs));
    OpenSystemConfig base;
    base.level = level;
    const std::uint64_t stable =
        base.effectiveInterarrivalPaper(config, pool);

    printBanner("Figure 6: response-time improvement vs lambda "
                "(SMT level 3)");
    TablePrinter table({"lambda(paper)", "load", "improve% (avg)",
                        "per trace", "mean N"},
                       {13, 6, 14, 22, 7});
    table.printHeader();

    // Every (lambda, trace) run is independent: fan them all out.
    const std::vector<double> factors = {0.85, 1.0, 1.25, 1.6, 2.2};
    std::vector<ResponseComparison> comparisons(
        factors.size() * static_cast<std::size_t>(traces));
    pool.run(comparisons.size(), [&](std::size_t i) {
        const double factor = factors[i / static_cast<std::size_t>(traces)];
        const auto t =
            static_cast<std::uint64_t>(i % static_cast<std::size_t>(traces));
        const auto lambda =
            static_cast<std::uint64_t>(factor * static_cast<double>(stable));
        OpenSystemConfig open = base;
        open.numJobs = 24;
        open.meanInterarrivalPaper = lambda;
        open.seed = config.seed ^ lambda ^ t;
        comparisons[i] = compareResponseTimes(config, open, pool);
    });

    const stats::Group byLambda = harness.group("lambda");
    for (std::size_t f = 0; f < factors.size(); ++f) {
        const double factor = factors[f];
        RunningStat improvement;
        RunningStat mean_n;
        std::string per_trace;
        const auto lambda = static_cast<std::uint64_t>(
            factor * static_cast<double>(stable));
        const stats::Group point =
            byLambda.group("x" + fmt(factor, 2));
        point.scalar("interarrival_paper_cycles",
                     "mean interarrival time in paper cycles") = lambda;
        stats::Distribution &per_trace_dist = point.distribution(
            "improvement_pct", "per-trace SOS improvement");
        for (int t = 0; t < traces; ++t) {
            const ResponseComparison &comparison =
                comparisons[f * static_cast<std::size_t>(traces) +
                            static_cast<std::size_t>(t)];
            improvement.push(comparison.improvementPct);
            per_trace_dist.sample(comparison.improvementPct);
            mean_n.push(comparison.sos.meanJobsInSystem);
            if (t > 0)
                per_trace += " ";
            per_trace += fmt(comparison.improvementPct, 1);
        }
        point.value("mean_jobs_in_system",
                    "mean queue length (Little's law)") = mean_n.mean();
        table.printRow(
            {fmtCycles(lambda),
             factor < 1.0 ? "heavy" : (factor > 1.3 ? "light" : "ref"),
             fmt(improvement.mean(), 1), per_trace,
             fmt(mean_n.mean(), 1)});
    }

    std::printf("\n(Paper: SOS improves response time across arrival "
                "rates; exact values differ per run because jobs, "
                "lengths and arrival order are random.)\n");
    return harness.finish();
}
