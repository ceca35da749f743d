/**
 * @file
 * Reproduces Figure 2: weighted speedup achieved with each dynamic
 * predictor on Jsb(6,3,3), against the best, worst and average of all
 * ten schedules.
 */

#include <cstdio>

#include "core/learned_predictor.hh"
#include "core/predictor.hh"
#include "model/model.hh"
#include "sim/batch_experiment.hh"
#include "sim/bench_harness.hh"
#include "sim/reporting.hh"

int
main(int argc, char **argv)
{
    using namespace sos;

    BenchHarness harness({"fig2_predictor_ws"}, argc, argv);
    const SimConfig &config = harness.config();
    const ExperimentSpec &spec = experimentByLabel("Jsb(6,3,3)");

    BatchExperiment exp(spec, config);
    exp.runSamplePhase();
    exp.runSymbiosValidation();
    exp.publishStats(
        harness.group(stats::sanitizeSegment(spec.label)));
    if (harness.wantsTrace())
        exp.recordTrace(harness.trace());

    printBanner("Figure 2: predictor WS on " + spec.label);
    TablePrinter table({"bar", "WS", "vs avg%"}, {12, 6, 8});
    table.printHeader();

    const double avg = exp.averageWs();
    const stats::Group bars = harness.group("bars");
    auto bar = [&](const std::string &name, double ws) {
        table.printRow(
            {name, fmt(ws, 3), fmt(100.0 * (ws - avg) / avg, 1)});
        bars.group(name).value("ws", "Figure 2 bar height") = ws;
    };

    bar("Best", exp.bestWs());
    bar("Worst", exp.worstWs());
    bar("Average", avg);
    for (const auto &predictor : makeAllPredictors())
        bar(predictor->name(), exp.wsOfPredictor(*predictor));

    // With --model/SOS_MODEL, add the trained model's bar: it ranks
    // the same candidates from static features alone.
    if (!config.modelPath.empty()) {
        LearnedPredictor learned(model::loadModel(config.modelPath));
        learned.setCandidateFeatures(exp.candidateFeatures());
        bar(learned.name(), exp.wsOfPredictor(learned));
    }

    std::printf("\n(Paper: best is 17%% over worst and 9%% over "
                "average; IPC, Dcache, FQ, Composite and Score come "
                "within 2%% of best.)\n");
    return harness.finish();
}
