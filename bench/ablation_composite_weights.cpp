/**
 * @file
 * Ablation: the Composite predictor's 0.9/0.1 weighting.
 *
 * The paper calls Composite "an experimental fit" of conflict and
 * smoothness signals. This harness sweeps the weight split on
 * Jsb(6,3,3) via a custom predictor built on the public Predictor
 * interface -- also a demonstration of extending SOS with one's own
 * predictor.
 */

#include <algorithm>
#include <cstdio>

#include "core/predictor.hh"
#include "sim/batch_experiment.hh"
#include "sim/bench_harness.hh"
#include "sim/reporting.hh"

namespace {

using namespace sos;

/** Composite with a configurable conflict/balance weight split. */
class WeightedComposite : public Predictor
{
  public:
    explicit WeightedComposite(double conflict_weight)
        : conflictWeight_(conflict_weight)
    {
    }

    std::string
    name() const override
    {
        return "Composite(" + fmt(conflictWeight_, 2) + ")";
    }

    std::vector<double>
    score(const std::vector<ScheduleProfile> &profiles) const override
    {
        double low_fq = 1e300;
        double low_fp = 1e300;
        double low_sum2 = 1e300;
        for (const auto &p : profiles) {
            const double fq =
                p.counters.conflictPct(p.counters.confFpQueue);
            const double fp =
                p.counters.conflictPct(p.counters.confFpUnits);
            low_fq = std::min(low_fq, std::max(fq, 1e-6));
            low_fp = std::min(low_fp, std::max(fp, 1e-6));
            low_sum2 = std::min(low_sum2, std::max(fq + fp, 1e-6));
        }
        std::vector<double> out;
        for (const auto &p : profiles) {
            const double fq = std::max(
                p.counters.conflictPct(p.counters.confFpQueue), 1e-6);
            const double fp = std::max(
                p.counters.conflictPct(p.counters.confFpUnits), 1e-6);
            const double ratio = std::min(
                {fq / low_fq, fp / low_fp, (fq + fp) / low_sum2});
            const double balance = std::max(p.balance(), 0.01);
            out.push_back(conflictWeight_ / ratio +
                          (1.0 - conflictWeight_) / balance);
        }
        return out;
    }

  private:
    double conflictWeight_;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace sos;

    BenchHarness harness({"ablation_composite_weights"}, argc,
                         argv);
    const SimConfig &config = harness.config();
    BatchExperiment exp(experimentByLabel("Jsb(6,3,3)"), config);
    exp.runSamplePhase();
    exp.runSymbiosValidation();
    exp.publishStats(harness.group("experiment"));
    if (harness.wantsTrace())
        exp.recordTrace(harness.trace());

    printBanner("Ablation: Composite weight split on Jsb(6,3,3)");
    std::printf("schedule WS range: worst %.3f, avg %.3f, best %.3f\n\n",
                exp.worstWs(), exp.averageWs(), exp.bestWs());

    TablePrinter table({"conflict weight", "picked", "WS"},
                       {16, 10, 7});
    table.printHeader();
    const stats::Group weights = harness.group("weights");
    for (const double w : {0.0, 0.25, 0.5, 0.75, 0.9, 1.0}) {
        const WeightedComposite predictor(w);
        const int index = exp.predictedIndex(predictor);
        table.printRow(
            {fmt(w, 2),
             exp.profiles()[static_cast<std::size_t>(index)].label,
             fmt(exp.symbiosWs()[static_cast<std::size_t>(index)],
                 3)});
        const stats::Group point = weights.group("w" + fmt(w, 2));
        point.info("picked", "schedule this weighting selects") =
            exp.profiles()[static_cast<std::size_t>(index)].label;
        point.value("ws", "symbios WS of the selected schedule") =
            exp.symbiosWs()[static_cast<std::size_t>(index)];
    }
    std::printf("\n(The paper's fit uses 0.9; weight 0.0 is pure "
                "Balance, 1.0 pure conflicts.)\n");
    return harness.finish();
}
