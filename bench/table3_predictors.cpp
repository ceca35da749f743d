/**
 * @file
 * Reproduces Table 3: per-schedule predictor data for Jsb(6,3,3).
 *
 * All 10 possible schedules of the 6-job mix are profiled in the
 * sample phase; the predictor columns are printed together with each
 * schedule's weighted speedup in a subsequent symbios phase. The best
 * value in each column is starred.
 */

#include <cstdio>
#include <vector>

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

    BenchHarness harness({"table3_predictors"}, argc, argv);
    const SimConfig &config = harness.config();
    const ExperimentSpec &spec = experimentByLabel("Jsb(6,3,3)");

    BatchExperiment exp(spec, config);
    exp.runSamplePhase();
    exp.runSymbiosValidation();
    exp.publishStats(
        harness.group(stats::sanitizeSegment(spec.label)));
    if (harness.wantsTrace())
        exp.recordTrace(harness.trace());

    printBanner("Table 3: predictor data for " + spec.label);
    std::printf("sample phase: %s simulated cycles "
                "(paper-equivalent %s; paper used 100M)\n"
                "symbios per schedule: %s simulated cycles\n\n",
                fmtCycles(exp.samplePhaseCycles()).c_str(),
                fmtCycles(exp.samplePhaseCycles() * config.cycleScale)
                    .c_str(),
                fmtCycles(config.symbiosCycles()).c_str());

    const auto &profiles = exp.profiles();
    const std::size_t n = profiles.size();

    // Table 3's columns, in order. Values follow the paper's
    // conventions: conflicts as % of cycles, Dcache as hit %, and the
    // raw Composite score.
    struct Column
    {
        const char *name;
        std::vector<double> values;
        bool lower_is_better;
    };
    std::vector<Column> columns;

    auto collect = [&](const char *name, auto getter, bool lower) {
        Column column;
        column.name = name;
        column.lower_is_better = lower;
        for (const auto &p : profiles)
            column.values.push_back(getter(p));
        columns.push_back(std::move(column));
    };

    collect("IPC", [](const ScheduleProfile &p) {
        return p.counters.ipc();
    }, false);
    collect("AllConf", [](const ScheduleProfile &p) {
        return p.counters.allConflictPct();
    }, true);
    collect("Dcache", [](const ScheduleProfile &p) {
        return 100.0 * p.counters.l1dHitRate();
    }, false);
    collect("FQ", [](const ScheduleProfile &p) {
        return p.counters.conflictPct(p.counters.confFpQueue);
    }, true);
    collect("FP", [](const ScheduleProfile &p) {
        return p.counters.conflictPct(p.counters.confFpUnits);
    }, true);
    collect("Sum2", [](const ScheduleProfile &p) {
        return p.counters.conflictPct(p.counters.confFpQueue) +
               p.counters.conflictPct(p.counters.confFpUnits);
    }, true);
    collect("Diversity", [](const ScheduleProfile &p) {
        return p.counters.mixImbalance();
    }, true);
    collect("Balance", [](const ScheduleProfile &p) {
        return p.balance();
    }, true);
    {
        // Composite: the raw predictor score (higher is better).
        Column column;
        column.name = "Composite";
        column.lower_is_better = false;
        column.values = makePredictor("Composite")->score(profiles);
        columns.push_back(std::move(column));
    }
    // With --model/SOS_MODEL, add the trained model's predicted-WS
    // column (higher is better), scored from static features.
    std::unique_ptr<LearnedPredictor> learned;
    if (!config.modelPath.empty()) {
        learned = std::make_unique<LearnedPredictor>(
            model::loadModel(config.modelPath));
        learned->setCandidateFeatures(exp.candidateFeatures());
        Column column;
        column.name = "Learned";
        column.lower_is_better = false;
        column.values = learned->score(profiles);
        columns.push_back(std::move(column));
    }

    std::vector<std::string> headers{"Schedule"};
    std::vector<int> widths{10};
    for (const Column &column : columns) {
        headers.push_back(column.name);
        widths.push_back(9);
    }
    headers.push_back("WS(t)");
    widths.push_back(7);

    TablePrinter table(headers, widths);
    table.printHeader();
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<std::string> cells{profiles[i].label};
        for (const Column &column : columns) {
            double best = column.values[0];
            for (double v : column.values) {
                best = column.lower_is_better ? std::min(best, v)
                                              : std::max(best, v);
            }
            std::string cell = fmt(column.values[i], 2);
            if (column.values[i] == best)
                cell += "*";
            cells.push_back(cell);
        }
        cells.push_back(fmt(exp.symbiosWs()[i], 3));
        table.printRow(cells);
    }

    std::printf("\n(* = best value in the column; the paper bolds "
                "these.)\n");
    std::printf("\nPredicted-best schedule per predictor:\n");
    const stats::Group picks = harness.group("predictors");
    const auto report_pick = [&](const Predictor &predictor) {
        const int index = exp.predictedIndex(predictor);
        std::printf("  %-10s -> %-10s (symbios WS %.3f)\n",
                    predictor.name().c_str(),
                    profiles[static_cast<std::size_t>(index)]
                        .label.c_str(),
                    exp.symbiosWs()[static_cast<std::size_t>(index)]);
        const stats::Group pick = picks.group(predictor.name());
        pick.info("schedule", "schedule this predictor selects") =
            profiles[static_cast<std::size_t>(index)].label;
        pick.value("ws", "symbios WS of the selected schedule") =
            exp.symbiosWs()[static_cast<std::size_t>(index)];
    };
    for (const auto &predictor : makeAllPredictors())
        report_pick(*predictor);
    if (learned)
        report_pick(*learned);
    return harness.finish();
}
