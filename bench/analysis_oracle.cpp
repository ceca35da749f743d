/**
 * @file
 * Analysis: oracle headroom and pairwise-symbiosis structure.
 *
 * Two questions the paper raises but cannot answer with 10 samples:
 *
 *  1. Oracle gap -- Jsb(6,3,3) has only 10 schedules, all of which the
 *     harness measures, so SOS's pick can be compared against the true
 *     optimum (for larger spaces the paper, and we, only sample).
 *
 *  2. Additivity -- is symbiosis approximately pairwise? The harness
 *     measures the weighted speedup of every *pair* of the 6-job mix
 *     coscheduled alone, then asks how well a schedule's measured WS
 *     is ranked by the sum of its tuples' pairwise scores. If the
 *     ranking is good, a scheduler could search the schedule space
 *     combinatorially instead of sampling (the "global optimization"
 *     SOS only approximates, Section 7).
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/thread_pool.hh"
#include "core/predictor.hh"
#include "cpu/machine.hh"
#include "metrics/calibrator.hh"
#include "metrics/weighted_speedup.hh"
#include "sim/batch_experiment.hh"
#include "sim/bench_harness.hh"
#include "sim/reporting.hh"
#include "sim/machine_engine.hh"

namespace {

using namespace sos;

/** Measured WS of one pair coscheduled alone for a while. */
double
pairWs(const ExperimentSpec &spec, const SimConfig &config, int a,
       int b)
{
    JobMix mix = spec.makeMix(config.seed);
    Calibrator calibrator(config.coreFor(2), config.mem,
                          config.calibWarmupCycles,
                          config.calibMeasureCycles);
    calibrator.calibrate(mix);

    MachineEngine engine(homogeneousMachine(config.coreFor(2), config.mem),
                         config.timesliceCycles());

    const MachineSchedule schedule(Schedule::fromPartition({{a, b}}));
    const std::uint64_t slices = 10;
    engine.runSchedule(mix, schedule, {2}); // warm
    const auto run = engine.runSchedule(mix, schedule, {slices}).front();
    return weightedSpeedup(mix, run.jobRetired, run.cycles);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace sos;

    BenchHarness harness({"analysis_oracle"}, argc, argv);
    const SimConfig &config = harness.config();
    const ExperimentSpec &spec = experimentByLabel("Jsb(6,3,3)");

    // Part 1: oracle vs SOS over the exhaustive space.
    BatchExperiment exp(spec, config);
    exp.runSamplePhase(); // all 10 schedules: the sample IS the space
    exp.runSymbiosValidation();
    exp.publishStats(harness.group("experiment"));
    if (harness.wantsTrace())
        exp.recordTrace(harness.trace());

    printBanner("Oracle headroom on " + spec.label);
    const auto score = makeScorePredictor();
    const double sos_ws = exp.wsOfPredictor(*score);
    std::printf("oracle (true best) WS: %.3f\n", exp.bestWs());
    std::printf("SOS (Score) WS:        %.3f  (%.1f%% of the oracle's "
                "gain over worst)\n",
                sos_ws,
                100.0 * (sos_ws - exp.worstWs()) /
                    (exp.bestWs() - exp.worstWs()));
    std::printf("oblivious expectation: %.3f\n", exp.averageWs());
    {
        const stats::Group oracle = harness.group("oracle");
        oracle.value("oracle_ws", "true-best symbios WS") =
            exp.bestWs();
        oracle.value("sos_ws", "symbios WS of the Score pick") = sos_ws;
        oracle.value("captured_gain_pct",
                     "share of the oracle's gain over worst") =
            100.0 * (sos_ws - exp.worstWs()) /
            (exp.bestWs() - exp.worstWs());
    }

    // Part 2: pairwise symbiosis matrix for the 6 jobs. Every pair
    // run is independent, so they fan out across the sweep workers.
    printBanner("Pairwise weighted speedup (2 contexts)");
    const int n = spec.numUnits();
    std::vector<std::vector<double>> matrix(
        static_cast<std::size_t>(n),
        std::vector<double>(static_cast<std::size_t>(n), 0.0));
    {
        std::vector<std::pair<int, int>> pairs;
        for (int a = 0; a < n; ++a) {
            for (int b = a + 1; b < n; ++b)
                pairs.emplace_back(a, b);
        }
        ThreadPool pool(resolveJobs(config.jobs));
        std::vector<double> ws(pairs.size());
        pool.run(pairs.size(), [&](std::size_t i) {
            ws[i] = pairWs(spec, config, pairs[i].first, pairs[i].second);
        });
        for (std::size_t i = 0; i < pairs.size(); ++i) {
            matrix[static_cast<std::size_t>(pairs[i].first)]
                  [static_cast<std::size_t>(pairs[i].second)] = ws[i];
        }

        stats::Vector &pair_ws = harness.group("pairwise").vector(
            "ws", "WS of each job pair coscheduled alone");
        for (std::size_t i = 0; i < pairs.size(); ++i) {
            pair_ws.push(std::to_string(pairs[i].first) + "_" +
                             std::to_string(pairs[i].second),
                         ws[i]);
        }

        JobMix names = spec.makeMix(config.seed);
        std::vector<std::string> headers{""};
        std::vector<int> widths{8};
        for (int j = 0; j < n; ++j) {
            headers.push_back(names.unitName(j) + "(" +
                              std::to_string(j) + ")");
            widths.push_back(9);
        }
        TablePrinter table(headers, widths);
        table.printHeader();
        for (int a = 0; a < n; ++a) {
            std::vector<std::string> row{names.unitName(a) + "(" +
                                         std::to_string(a) + ")"};
            for (int b = 0; b < n; ++b) {
                if (b == a)
                    row.push_back("-");
                else
                    row.push_back(fmt(b < a ? matrix[b][a]
                                            : matrix[a][b],
                                      2));
            }
            table.printRow(row);
        }
    }

    // Part 3: does the pairwise sum rank whole schedules correctly?
    printBanner("Pairwise-sum prediction vs measured schedule WS");
    TablePrinter rank({"schedule", "pair-sum", "measured WS"},
                      {10, 9, 12});
    rank.printHeader();
    std::vector<std::pair<double, double>> points;
    for (std::size_t i = 0; i < exp.schedules().size(); ++i) {
        double sum = 0.0;
        for (const auto &tuple :
             exp.schedules()[i].coreSchedule(0).tuples()) {
            for (std::size_t x = 0; x < tuple.size(); ++x) {
                for (std::size_t y = x + 1; y < tuple.size(); ++y) {
                    const int a = std::min(tuple[x], tuple[y]);
                    const int b = std::max(tuple[x], tuple[y]);
                    sum += matrix[static_cast<std::size_t>(a)]
                                 [static_cast<std::size_t>(b)];
                }
            }
        }
        points.emplace_back(sum, exp.symbiosWs()[i]);
        rank.printRow({exp.schedules()[i].label(), fmt(sum, 2),
                       fmt(exp.symbiosWs()[i], 3)});
    }

    // Rank correlation (Spearman via rank vectors).
    const std::size_t m = points.size();
    auto ranksOf = [m](std::vector<double> values) {
        std::vector<std::size_t> order(m);
        for (std::size_t i = 0; i < m; ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return values[a] < values[b];
                  });
        std::vector<double> ranks(m);
        for (std::size_t r = 0; r < m; ++r)
            ranks[order[r]] = static_cast<double>(r);
        return ranks;
    };
    std::vector<double> xs;
    std::vector<double> ys;
    for (const auto &[x, y] : points) {
        xs.push_back(x);
        ys.push_back(y);
    }
    const auto rx = ranksOf(xs);
    const auto ry = ranksOf(ys);
    double d2 = 0.0;
    for (std::size_t i = 0; i < m; ++i)
        d2 += (rx[i] - ry[i]) * (rx[i] - ry[i]);
    const double spearman =
        1.0 - 6.0 * d2 /
                  (static_cast<double>(m) *
                   (static_cast<double>(m) * static_cast<double>(m) -
                    1.0));
    std::printf("\nSpearman rank correlation (pair-sum vs measured): "
                "%.2f\n",
                spearman);
    std::printf("(High correlation would justify combinatorial search "
                "over pairwise scores instead of schedule sampling.)\n");
    harness.group("pairwise")
            .value("spearman",
                   "rank correlation of pair-sum vs measured WS") =
        spearman;
    return harness.finish();
}
