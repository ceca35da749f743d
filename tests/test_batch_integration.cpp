/**
 * @file
 * Integration tests: the full sample -> predict -> symbios pipeline on
 * small experiments with the fast configuration.
 */

#include <gtest/gtest.h>

#include "core/predictor.hh"
#include "sim/batch_experiment.hh"

namespace sos {
namespace {

SimConfig
fast()
{
    return makeFastConfig();
}

TEST(BatchIntegration, SamplePhaseProfilesEverySchedule)
{
    BatchExperiment exp(experimentByLabel("Jsb(4,2,2)"), fast());
    exp.runSamplePhase();
    EXPECT_EQ(exp.schedules().size(), 3u); // the whole space
    EXPECT_EQ(exp.profiles().size(), 3u);
    for (const ScheduleProfile &p : exp.profiles()) {
        EXPECT_GT(p.counters.cycles, 0u);
        EXPECT_GT(p.counters.retired, 0u);
        EXPECT_FALSE(p.sliceIpc.empty());
        EXPECT_GT(p.sampleWs, 0.0);
        EXPECT_FALSE(p.label.empty());
    }
}

TEST(BatchIntegration, SampleCyclesMatchPeriodTimesSchedules)
{
    const SimConfig config = fast();
    BatchExperiment exp(experimentByLabel("Jsb(4,2,2)"), config);
    exp.runSamplePhase();
    // 3 schedules, period 2 timeslices each, samplePeriods repeats.
    EXPECT_EQ(exp.samplePhaseCycles(),
              3u * 2u *
                  static_cast<std::uint64_t>(config.samplePeriods) *
                  config.timesliceCycles());
}

TEST(BatchIntegration, SymbiosValidationProducesWs)
{
    BatchExperiment exp(experimentByLabel("Jsb(4,2,2)"), fast());
    exp.runSamplePhase();
    exp.runSymbiosValidation();
    ASSERT_EQ(exp.symbiosWs().size(), 3u);
    for (double ws : exp.symbiosWs()) {
        EXPECT_GT(ws, 0.5);
        EXPECT_LT(ws, 3.0); // SMT level 2: WS cannot plausibly exceed 3
    }
    EXPECT_LE(exp.worstWs(), exp.averageWs());
    EXPECT_LE(exp.averageWs(), exp.bestWs());
}

TEST(BatchIntegration, PredictorsPickValidIndices)
{
    BatchExperiment exp(experimentByLabel("Jsb(4,2,2)"), fast());
    exp.runSamplePhase();
    exp.runSymbiosValidation();
    for (const auto &predictor : makeAllPredictors()) {
        const int index = exp.predictedIndex(*predictor);
        EXPECT_GE(index, 0);
        EXPECT_LT(index, 3);
        const double ws = exp.wsOfPredictor(*predictor);
        EXPECT_GE(ws, exp.worstWs());
        EXPECT_LE(ws, exp.bestWs());
    }
}

TEST(BatchIntegration, SamplesTenSchedulesFromLargeSpace)
{
    BatchExperiment exp(experimentByLabel("Jsb(6,3,1)"), fast());
    exp.runSamplePhase();
    EXPECT_EQ(exp.schedules().size(), 10u); // of the 60 distinct
}

TEST(BatchIntegration, DeterministicAcrossRuns)
{
    const SimConfig config = fast();
    std::vector<double> first;
    std::vector<double> second;
    for (auto *out : {&first, &second}) {
        BatchExperiment exp(experimentByLabel("Jsb(4,2,2)"), config);
        exp.runSamplePhase();
        exp.runSymbiosValidation();
        *out = exp.symbiosWs();
    }
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_DOUBLE_EQ(first[i], second[i]);
}

TEST(BatchIntegration, SplittingTightArrayThreadsIsPenalized)
{
    // Section 6's core claim, miniaturized: coschedule ARRAY's two
    // threads vs. split them, with one filler pair.
    SimConfig config = fast();
    ExperimentSpec spec;
    spec.label = "mini-parallel";
    spec.entries = {{"EP", 1}, {"MG", 1}, {"ARRAY", 2}};
    spec.level = 2;
    spec.swap = 2;

    BatchExperiment exp(spec, config);
    exp.runSamplePhase(); // only 3 schedules exist for 4 units
    exp.runSymbiosValidation();

    // Find the schedule that pairs units 2 and 3 (the ARRAY threads).
    int together = -1;
    for (std::size_t i = 0; i < exp.schedules().size(); ++i) {
        for (const auto &tuple :
             exp.schedules()[i].coreSchedule(0).tuples()) {
            if (tuple == std::vector<int>{2, 3})
                together = static_cast<int>(i);
        }
    }
    ASSERT_GE(together, 0);
    const double ws_together =
        exp.symbiosWs()[static_cast<std::size_t>(together)];
    for (std::size_t i = 0; i < exp.symbiosWs().size(); ++i) {
        if (static_cast<int>(i) != together) {
            // Splitting the threads forfeits ARRAY's progress; the
            // partner's private-machine speedup offsets only part of
            // that in this small mix, so the ordering must still hold.
            EXPECT_GT(ws_together, exp.symbiosWs()[i]);
        }
    }
}

TEST(BatchIntegration, LittleTimesliceUsesSmallerQuantum)
{
    const SimConfig config = fast();
    BatchExperiment big(experimentByLabel("Jsb(6,3,1)"), config);
    BatchExperiment little(experimentByLabel("Jsl(6,3,1)"), config);
    big.runSamplePhase();
    little.runSamplePhase();
    EXPECT_EQ(little.samplePhaseCycles() * 4,
              big.samplePhaseCycles());
}

} // namespace
} // namespace sos
