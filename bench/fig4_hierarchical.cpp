/**
 * @file
 * Reproduces Figure 4: improvement in weighted speedup achievable by
 * SOS with hierarchical symbiosis (choosing both the coschedule and
 * the number of contexts each adaptive job receives) at SMT levels
 * 2, 3, 4 and 6, plus the Section 7 EP/ARRAY context-split example.
 */

#include <cstdio>

#include "sim/bench_harness.hh"
#include "sim/hierarchical_experiment.hh"
#include "sim/reporting.hh"

int
main(int argc, char **argv)
{
    using namespace sos;

    BenchHarness harness({"fig4_hierarchical"}, argc, argv);
    const SimConfig &config = harness.config();
    const stats::Group experiments = harness.group("experiments");

    printBanner("Figure 4: hierarchical symbiosis improvements");
    // The paper plots the improvement "potentially achievable by SOS"
    // with the extra allocation degree of freedom: the best candidate
    // against the random (average) and unlucky (worst) ones. The
    // Score-picked columns show what one concrete sample-phase run
    // attains.
    TablePrinter table({"Experiment", "worst", "avg", "best",
                        "potential +avg%", "+worst%", "Score WS",
                        "Score +avg%"},
                       {12, 7, 7, 7, 15, 8, 9, 11});
    table.printHeader();

    for (const HierarchicalSpec &spec : hierarchicalExperiments()) {
        HierarchicalExperiment exp(spec, config);
        exp.run();
        exp.publishStats(
            experiments.group(stats::sanitizeSegment(spec.label)));
        if (harness.wantsTrace())
            exp.recordTrace(harness.trace());
        const double potential_avg =
            100.0 * (exp.bestWs() - exp.averageWs()) / exp.averageWs();
        const double potential_worst =
            100.0 * (exp.bestWs() - exp.worstWs()) / exp.worstWs();
        table.printRow({spec.label, fmt(exp.worstWs(), 3),
                        fmt(exp.averageWs(), 3), fmt(exp.bestWs(), 3),
                        fmt(potential_avg, 1), fmt(potential_worst, 1),
                        fmt(exp.scoreWs(), 3),
                        fmt(exp.improvementOverAveragePct(), 1)});
    }
    std::printf("\n(Paper: the two levels of choice give SOS a "
                "significant advantage over random and unlucky "
                "schedules at every SMT level.)\n");

    // Section 7 worked example: mt_EP and mt_ARRAY on a 3-context SMT.
    printBanner("Section 7: EP/ARRAY context allocation at SMT 3");
    HierarchicalSpec example;
    example.label = "EP+ARRAY";
    example.level = 3;
    example.workloads = {"mt_EP", "mt_ARRAY"};
    HierarchicalExperiment exp(example, config, 16);
    exp.run();
    exp.publishStats(
        experiments.group(stats::sanitizeSegment(example.label)));
    if (harness.wantsTrace())
        exp.recordTrace(harness.trace());

    TablePrinter detail({"allocation [EP,ARRAY]", "schedule", "WS"},
                        {22, 16, 7});
    detail.printHeader();
    for (const auto &candidate : exp.candidates()) {
        detail.printRow({candidate.plan.label(),
                         candidate.schedule.label(),
                         fmt(candidate.symbiosWs, 3)});
    }
    std::printf("\n(Paper: 2 contexts for ARRAY + 1 for EP is 8%% "
                "more symbiotic than the complement; alternating 3 EP "
                "threads with 3 ARRAY threads is 9%% worse than the "
                "best.)\n");

    // ...and the Section 7 twist: adding CG changes the optimum.
    printBanner("Section 7: adding CG changes the optimal allocation");
    HierarchicalSpec with_cg;
    with_cg.label = "CG+EP+ARRAY";
    with_cg.level = 4;
    with_cg.workloads = {"CG", "mt_EP", "mt_ARRAY"};
    HierarchicalExperiment exp2(with_cg, config, 18);
    exp2.run();
    exp2.publishStats(
        experiments.group(stats::sanitizeSegment(with_cg.label)));
    if (harness.wantsTrace())
        exp2.recordTrace(harness.trace());
    const auto &best = exp2.candidates()[static_cast<std::size_t>(
        exp2.scoreBestIndex())];
    std::printf("SOS picks allocation %s (schedule %s), WS %.3f "
                "[best %.3f, avg %.3f]\n",
                best.plan.label().c_str(),
                best.schedule.label().c_str(), best.symbiosWs,
                exp2.bestWs(), exp2.averageWs());
    std::printf("(Paper: with CG in the mix the optimum becomes 1 "
                "context for CG, 2 for EP, 1 for ARRAY.)\n");
    return harness.finish();
}
