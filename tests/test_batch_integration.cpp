/**
 * @file
 * Integration tests: the full sample -> predict -> symbios pipeline on
 * small experiments with the fast configuration.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "core/predictor.hh"
#include "cpu/sampling.hh"
#include "model/trainer.hh"
#include "sim/batch_experiment.hh"
#include "sim/params_io.hh"
#include "stats/manifest.hh"
#include "stats/stats.hh"
#include "stats/trace.hh"
#include "stats/trace_reader.hh"

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

/** The process-wide sampling stats as a tally. */
SamplingTally
recordedSampling()
{
    const SamplingStats &s = samplingStats();
    SamplingTally tally;
    tally.periods = s.periods.load();
    tally.fastForwardCycles = s.fastForwardCycles.load();
    tally.detailedCycles = s.detailedCycles.load();
    tally.measureWindows = s.measureWindows.load();
    tally.windowRetired = s.windowRetired.load();
    tally.windowRetiredSq = s.windowRetiredSq.load();
    return tally;
}

TEST(BatchIntegration, SamplingStatsCountEachPhaseOnce)
{
    // The sample phase runs each candidate once, to the symbios
    // length, but each phase records only the tally of the length it
    // reads: the totals equal those of separate sample and symbios
    // sweeps.
    SimConfig config = fast();
    applyOverride(config, "sample=7000:1000:2000");
    BatchExperiment exp(experimentByLabel("Jsb(6,3,1)"), config);
    resetSamplingStats();
    exp.runSamplePhase();
    const SamplingTally after_sample = recordedSampling();
    exp.runSymbiosValidation();
    const SamplingTally after_symbios = recordedSampling();
    resetSamplingStats();

    const std::vector<MachineSchedule> &schedules = exp.schedules();
    const auto periods =
        static_cast<std::uint64_t>(std::max(1, config.samplePeriods));
    const std::uint64_t symbios = std::max<std::uint64_t>(
        1, config.symbiosCycles() / config.timesliceCycles());
    const ParallelScheduleRunner runner(2);
    const auto tallyOf = [&](const auto &length) {
        SamplingTally tally;
        for (const auto &runs :
             runner.runAll(exp.sweep(schedules), schedules,
                           [&](std::size_t i) {
                               return std::vector{length(i)};
                           }))
            tally += runs.front().run.sampling;
        return tally;
    };
    SamplingTally expected = tallyOf([&](std::size_t i) {
        return schedules[i].periodTimeslices() * periods;
    });
    EXPECT_GT(expected.measureWindows, 0u);
    EXPECT_EQ(after_sample, expected);
    expected += tallyOf([&](std::size_t) { return symbios; });
    EXPECT_EQ(after_symbios, expected);
    EXPECT_EQ(recordedSampling(), SamplingTally{});
}

TEST(BatchIntegration, ScreenedSymbiosMatchesUnscreened)
{
    // The samplek screen narrows only the sample phase: a
    // screened-out candidate still runs to the symbios length in the
    // same pass, so every symbios WS matches the unscreened run's.
    BatchExperiment full(experimentByLabel("Jsb(6,3,1)"), fast());
    full.runSamplePhase();
    full.runSymbiosValidation();

    stats::EventTrace trace;
    full.recordTrace(trace);
    const model::Dataset dataset = model::datasetFromTrace(
        stats::parseTraceText(trace.render(), "screen-test"));
    const std::string model_path =
        ::testing::TempDir() + "batch_screen_model.txt";
    model::fitLinearModel(dataset.featureNames, dataset.rows,
                          model::FitOptions{})
        ->save(model_path);

    SimConfig config = fast();
    config.samplek = 3;
    config.modelPath = model_path;
    BatchExperiment screened(experimentByLabel("Jsb(6,3,1)"), config);
    screened.runSamplePhase();
    screened.runSymbiosValidation();
    std::remove(model_path.c_str());

    std::size_t detailed = 0;
    for (const ScheduleProfile &profile : screened.profiles())
        detailed += profile.detailed ? 1 : 0;
    EXPECT_LT(detailed, full.profiles().size());
    EXPECT_EQ(screened.symbiosWs(), full.symbiosWs());
}

/** fig1's manifest and trace, sampled, with @p workers on one pool. */
std::string
sampledFig1Document(int workers)
{
    // The benchmark's fig1 configuration at SOS_CYCLE_SCALE=500 with
    // run_all.sh's sampling windows.
    SimConfig config = makeBenchConfig();
    for (const char *knob :
         {"cycleScale=500", "symbiosSimCycles=100000",
          "calibWarmupCycles=60000", "calibMeasureCycles=100000",
          "sample=2250:62:188"})
        applyOverride(config, knob);

    resetSamplingStats();
    SoloIpcTable table;
    ThreadPool pool(workers);
    const std::vector<std::unique_ptr<BatchExperiment>> experiments =
        runExperiments(paperExperiments(), config, pool, table);

    stats::Registry registry;
    stats::EventTrace trace;
    const stats::Group root(registry, "fig1");
    for (const std::unique_ptr<BatchExperiment> &exp : experiments) {
        exp->publishStats(
            root.group(stats::sanitizeSegment(exp->spec().label)));
        exp->recordTrace(trace);
    }
    publishSamplingStats(root.group("sampling"), config.sample);
    stats::Manifest manifest;
    manifest.tool = "test_batch_integration";
    manifest.gitRev = "pinned";
    manifest.seed = config.seed;
    manifest.config = configPairs(config);
    std::string document = renderManifest(manifest, registry);
    resetSamplingStats();
    return document + trace.render();
}

TEST(BatchIntegration, SampledFig1ManifestIdenticalAcrossWorkerCounts)
{
    const std::string serial = sampledFig1Document(1);
    EXPECT_NE(serial.find("ipc_cv"), std::string::npos);
    for (int workers : {2, 8})
        EXPECT_EQ(sampledFig1Document(workers), serial)
            << workers << " workers";
}

} // namespace
} // namespace sos
