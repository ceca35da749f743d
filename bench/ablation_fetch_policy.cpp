/**
 * @file
 * Ablation: ICOUNT fetch vs naive round-robin fetch.
 *
 * The paper's substrate assumes ICOUNT.2.8 (Tullsen et al., ISCA'96).
 * This harness quantifies how much of the machine's throughput -- and
 * of SOS's headroom -- depends on that choice, by running Jsb(6,3,3)
 * under both fetch policies.
 */

#include <cstdio>

#include "core/predictor.hh"
#include "sim/batch_experiment.hh"
#include "sim/bench_harness.hh"
#include "sim/reporting.hh"

int
main(int argc, char **argv)
{
    using namespace sos;

    BenchHarness harness({"ablation_fetch_policy"}, argc, argv);
    const stats::Group policies = harness.group("policies");

    printBanner("Ablation: ICOUNT vs round-robin fetch on Jsb(6,3,3)");
    TablePrinter table({"fetch policy", "worst", "avg", "best",
                        "Score WS"},
                       {14, 7, 7, 7, 9});
    table.printHeader();

    const auto score = makeScorePredictor();
    for (const bool round_robin : {false, true}) {
        SimConfig config = harness.config();
        config.core.roundRobinFetch = round_robin;
        BatchExperiment exp(experimentByLabel("Jsb(6,3,3)"), config);
        exp.runSamplePhase();
        exp.runSymbiosValidation();
        const stats::Group policy = policies.group(
            round_robin ? "round_robin" : "icount");
        exp.publishStats(policy.group("experiment"));
        policy.value("score_ws", "symbios WS trusting Score") =
            exp.wsOfPredictor(*score);
        if (harness.wantsTrace())
            exp.recordTrace(harness.trace());
        table.printRow({round_robin ? "round-robin" : "ICOUNT",
                        fmt(exp.worstWs(), 3), fmt(exp.averageWs(), 3),
                        fmt(exp.bestWs(), 3),
                        fmt(exp.wsOfPredictor(*score), 3)});
    }
    std::printf("\n(ICOUNT should raise throughput across the board "
                "by keeping fast-moving threads fed.)\n");
    return harness.finish();
}
