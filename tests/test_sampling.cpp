/**
 * @file
 * Tests for the sampled-simulation stack: the sample=U:W:M knob, the
 * drain/fast-forward core surgery, the SamplingController contract
 * (disabled == full detail), and the headline accuracy claim (a
 * sampled sweep ranks coschedules like the full-detail sweep).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cpu/machine.hh"
#include "sched/job.hh"
#include "sim/batch_experiment.hh"
#include "sim/params_io.hh"
#include "cpu/sampling.hh"
#include "trace/workload_library.hh"

namespace sos {
namespace {

std::unique_ptr<Job>
makeJob(std::uint32_t id, const std::string &workload)
{
    return std::make_unique<Job>(
        id, WorkloadLibrary::instance().get(workload),
        0x900d5eedULL ^ id, 1, false);
}

ThreadBinding
bindingOf(Job &job, int thread = 0)
{
    ThreadBinding b;
    b.gen = &job.generator(thread);
    b.sync = job.syncDomain();
    b.syncIndex = thread;
    b.asid = job.asid();
    return b;
}

TEST(SampleWindowsParse, AcceptsTripleAndOff)
{
    const SampleWindows on = parseSampleWindows("42000:2000:6000");
    EXPECT_TRUE(on.enabled());
    EXPECT_EQ(on.fastForward, 42000u);
    EXPECT_EQ(on.warm, 2000u);
    EXPECT_EQ(on.measure, 6000u);
    EXPECT_FALSE(parseSampleWindows("off").enabled());
    EXPECT_FALSE(parseSampleWindows("0").enabled());
}

TEST(SampleWindowsParse, RenderRoundTrips)
{
    EXPECT_EQ(renderSampleWindows(SampleWindows{}), "off");
    EXPECT_EQ(renderSampleWindows(parseSampleWindows("100:10:20")),
              "100:10:20");
    EXPECT_EQ(parseSampleWindows(renderSampleWindows(SampleWindows{})),
              SampleWindows{});
}

TEST(SampleWindowsParse, MalformedShapeIsFatal)
{
    SimConfig config;
    EXPECT_DEATH(applyOverride(config, "sample=1000"), "U:W:M");
    EXPECT_DEATH(applyOverride(config, "sample=1000:10"), "U:W:M");
    EXPECT_DEATH(applyOverride(config, "sample=1:2:3:4"), "U:W:M");
    EXPECT_DEATH(applyOverride(config, "sample=on"), "U:W:M");
}

TEST(SampleWindowsParse, BadNumbersAreFatal)
{
    SimConfig config;
    EXPECT_DEATH(applyOverride(config, "sample=ten:1:1"),
                 "not an unsigned integer");
    EXPECT_DEATH(applyOverride(config, "sample=100:-5:10"),
                 "not an unsigned integer");
}

TEST(SampleWindowsParse, DegenerateWindowsAreFatal)
{
    SimConfig config;
    // Detailed-only "sampling" must be spelled 'off'.
    EXPECT_DEATH(applyOverride(config, "sample=0:100:200"),
                 "no fast-forward window");
    // Fast-forwarding with no measurement has no rate to replay.
    EXPECT_DEATH(applyOverride(config, "sample=1000:100:0"),
                 "never measures");
}

TEST(SampleWindowsParse, ConfigPairsOmitKeyWhenDisabled)
{
    // The golden manifests predate sampling; the key must only appear
    // once a run opts in, or every byte-pinned manifest would churn.
    SimConfig config;
    auto has_sample = [](const SimConfig &c) {
        for (const auto &pair : configPairs(c)) {
            if (pair.first == "sample")
                return true;
        }
        return false;
    };
    EXPECT_FALSE(has_sample(config));
    applyOverride(config, "sample=1000:100:200");
    EXPECT_TRUE(has_sample(config));
    applyOverride(config, "sample=off");
    EXPECT_FALSE(has_sample(config));
}

TEST(Sampling, DisabledControllerIsFullDetail)
{
    PerfCounters direct;
    PerfCounters via;
    for (const bool use_controller : {false, true}) {
        Machine machine(CoreParams{}, MemParams{});
        SmtCore &core = machine.core(0);
        auto j1 = makeJob(1, "FP");
        auto j2 = makeJob(2, "GCC");
        core.attachThread(0, bindingOf(*j1));
        core.attachThread(1, bindingOf(*j2));
        if (use_controller) {
            SamplingController sampler(core, SampleWindows{});
            SamplingTally tally;
            sampler.run(30000, via, tally);
            EXPECT_EQ(tally, SamplingTally{});
        } else {
            core.run(30000, direct);
        }
    }
    EXPECT_EQ(direct.cycles, via.cycles);
    EXPECT_EQ(direct.retired, via.retired);
    EXPECT_EQ(direct.fetched, via.fetched);
    EXPECT_EQ(direct.l1dMisses, via.l1dMisses);
    EXPECT_EQ(direct.l1iMisses, via.l1iMisses);
    EXPECT_EQ(direct.confIntQueue, via.confIntQueue);
    EXPECT_EQ(direct.confRob, via.confRob);
    EXPECT_EQ(direct.slotRetired, via.slotRetired);
}

TEST(Sampling, DrainEmptiesPipelineAndCoreRunsOn)
{
    Machine machine(CoreParams{}, MemParams{});
    SmtCore &core = machine.core(0);
    auto j1 = makeJob(1, "GCC");
    auto j2 = makeJob(2, "MG");
    core.attachThread(0, bindingOf(*j1));
    core.attachThread(1, bindingOf(*j2));
    PerfCounters pc;
    core.run(5000, pc);
    EXPECT_GT(core.inFlightCount(), 0);

    PerfCounters drained;
    core.drainInFlight(drained);
    EXPECT_EQ(core.inFlightCount(), 0);
    // Every in-flight uop is credited as instantly retired.
    EXPECT_GT(drained.retired, 0u);
    EXPECT_EQ(drained.cycles, 0u);

    // The core must come back up from the drained state.
    PerfCounters after;
    core.run(5000, after);
    EXPECT_GT(after.retired, 0u);
}

TEST(Sampling, SampledRunAdvancesCycleAndRetires)
{
    Machine machine(CoreParams{}, MemParams{});
    SmtCore &core = machine.core(0);
    auto j1 = makeJob(1, "EP");
    auto j2 = makeJob(2, "SWIM");
    core.attachThread(0, bindingOf(*j1));
    core.attachThread(1, bindingOf(*j2));
    resetSamplingStats();
    SamplingController sampler(core, parseSampleWindows("7000:1000:2000"));
    PerfCounters pc;
    SamplingTally tally;
    sampler.run(20000, pc, tally);
    EXPECT_EQ(pc.cycles, 20000u);
    EXPECT_EQ(core.now(), 20000u);
    EXPECT_GT(pc.retired, 0u);
    // Conflict counters are extrapolated but still bounded by the
    // interval length (they were bounded by detailed cycles before
    // scaling by total/detailed).
    EXPECT_LE(pc.confRob, pc.cycles);
    EXPECT_LE(pc.confIntQueue, pc.cycles);
    // The interval's windows land in the caller's tally; the
    // process-wide stats see them only once recorded.
    EXPECT_EQ(samplingStats().periods.load(), 0u);
    recordSampling(tally);
    const SamplingStats &stats = samplingStats();
    EXPECT_EQ(stats.periods.load(), tally.periods);
    EXPECT_EQ(stats.measureWindows.load(), tally.measureWindows);
    EXPECT_EQ(stats.windowRetiredSq.load(), tally.windowRetiredSq);
    EXPECT_GT(stats.periods.load(), 0u);
    EXPECT_GT(stats.fastForwardCycles.load(), 0u);
    EXPECT_GT(stats.detailedCycles.load(), 0u);
    EXPECT_EQ(stats.fastForwardCycles.load() +
                  stats.detailedCycles.load(),
              20000u);
    resetSamplingStats();
    EXPECT_EQ(samplingStats().periods.load(), 0u);
}

/** Index of the best (argmax) weighted speedup. */
std::size_t
winnerOf(const std::vector<double> &ws)
{
    return static_cast<std::size_t>(std::distance(
        ws.begin(), std::max_element(ws.begin(), ws.end())));
}

std::vector<double>
sweepWs(const SimConfig &config, const char *label = "Jsb(4,2,2)")
{
    BatchExperiment exp(experimentByLabel(label), config);
    exp.runSamplePhase();
    exp.runSymbiosValidation();
    return exp.symbiosWs();
}

TEST(Sampling, SampledSweepPreservesRankingWithinTolerance)
{
    // The headline accuracy contract: on the small fig1-style config
    // the sampled sweep must pick the same best coschedule as full
    // detail, with every candidate's WS within a modest error bound.
    SimConfig full = makeFastConfig();
    SimConfig sampled = full;
    // The fast config's timeslice is only 10000 cycles and the three
    // candidates sit within ~4% of each other, so the test spends half
    // the interval in detail; production sampling at cycleScale=100
    // (50000-cycle timeslices) affords far leaner detailed fractions.
    applyOverride(sampled, "sample=5000:2000:3000");

    // Both golden batch experiments: the full space (3 candidates)
    // and the sampled-from-large-space shape (10 of 60).
    for (const char *label : {"Jsb(4,2,2)", "Jsb(6,3,1)"}) {
        const std::vector<double> full_ws = sweepWs(full, label);
        resetSamplingStats();
        const std::vector<double> sampled_ws = sweepWs(sampled, label);

        ASSERT_EQ(full_ws.size(), sampled_ws.size()) << label;
        EXPECT_EQ(winnerOf(full_ws), winnerOf(sampled_ws)) << label;
        for (std::size_t i = 0; i < full_ws.size(); ++i) {
            EXPECT_NEAR(sampled_ws[i], full_ws[i], full_ws[i] * 0.10)
                << label << " candidate " << i;
        }
    }
}

TEST(Sampling, SampledSweepDeterministicAcrossWorkersAndSnapshot)
{
    // The manifests' determinism contract extends to sampled mode:
    // the worker count must not change a single number.
    SimConfig base = makeFastConfig();
    applyOverride(base, "sample=7000:1000:2000");

    std::vector<std::vector<double>> results;
    for (const char *variant : {"jobs=1", "jobs=2"}) {
        SimConfig config = base;
        applyOverride(config, variant);
        resetSamplingStats();
        results.push_back(sweepWs(config));
    }
    ASSERT_EQ(results[0].size(), results[1].size());
    for (std::size_t i = 0; i < results[0].size(); ++i)
        EXPECT_DOUBLE_EQ(results[0][i], results[1][i]) << i;
}

} // namespace
} // namespace sos
