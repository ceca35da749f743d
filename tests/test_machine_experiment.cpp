/**
 * @file
 * Machine-level experiment tests: a closed experiment on a CMP
 * (Jm(X,C,Y,Z), C > 1) obeys the sweep determinism contract --
 * profiles and symbios WS are bit-identical for any worker count (the
 * SOS_JOBS=1/2/8 acceptance check, run in-process via config.jobs) --
 * and publishes the best candidate's machine counters exactly as a
 * from-scratch run of that candidate measures them. That the 1-core
 * case is the paper's SMT core is pinned by the batch golden
 * (test_adapter_equivalence).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "sim/batch_experiment.hh"
#include "sim/params_io.hh"
#include "stats/stats.hh"

namespace sos {
namespace {

ExperimentSpec
smallSpec()
{
    return {
        .label = "Jm(4,2,2,2)",
        .entries = {{"FP"}, {"MG"}, {"GCC"}, {"IS"}},
        .numCores = 2,
    };
}

TEST(MachineExperiment, SweepIsBitIdenticalForAnyWorkerCount)
{
    const ExperimentSpec spec = smallSpec();

    struct Observed
    {
        std::vector<std::string> keys;
        std::vector<double> sampleWs;
        std::vector<double> symbiosWs;
    };
    std::vector<Observed> runs;
    for (const int jobs : {1, 2, 8}) {
        SimConfig config = makeFastConfig();
        config.jobs = jobs;
        BatchExperiment exp(spec, config);
        exp.runSamplePhase();
        exp.runSymbiosValidation();
        Observed obs;
        for (const MachineSchedule &s : exp.schedules())
            obs.keys.push_back(s.key());
        for (const ScheduleProfile &p : exp.profiles())
            obs.sampleWs.push_back(p.sampleWs);
        obs.symbiosWs = exp.symbiosWs();
        runs.push_back(std::move(obs));
    }
    ASSERT_EQ(runs.size(), 3u);
    for (std::size_t i = 1; i < runs.size(); ++i) {
        EXPECT_EQ(runs[i].keys, runs[0].keys);
        // Bit-identical, not approximately equal: the determinism
        // contract promises the same floating-point results.
        EXPECT_EQ(runs[i].sampleWs, runs[0].sampleWs);
        EXPECT_EQ(runs[i].symbiosWs, runs[0].symbiosWs);
    }
    EXPECT_FALSE(runs[0].symbiosWs.empty());
    for (const double ws : runs[0].symbiosWs)
        EXPECT_GT(ws, 0.0);
}

TEST(MachineExperiment, PolicyEvaluationIsDeterministicAndWellFormed)
{
    const ExperimentSpec spec = smallSpec();
    SimConfig config = makeFastConfig();
    config.jobs = 2;
    BatchExperiment exp(spec, config);
    exp.runSamplePhase();

    for (const std::string &name : threadToCorePolicyNames()) {
        const BatchExperiment::PolicyResult &result =
            exp.evaluatePolicy(name);
        EXPECT_EQ(result.policy, name);
        EXPECT_EQ(static_cast<int>(result.allocation.size()),
                  spec.numCores);
        EXPECT_GT(result.schedulesRun, 0);
        EXPECT_GT(result.bestWs, 0.0);
        EXPECT_GE(result.bestWs, result.avgWs);
    }
    EXPECT_EQ(exp.policyResults().size(),
              threadToCorePolicyNames().size());

    // A second experiment replays the synpa evaluation identically.
    BatchExperiment again(spec, config);
    again.runSamplePhase();
    const auto &a = exp.policyResults().front();
    const auto &b = again.evaluatePolicy(a.policy);
    EXPECT_EQ(a.allocation, b.allocation);
    EXPECT_EQ(a.avgWs, b.avgWs);
}

TEST(MachineExperiment, CoscheduleSamplesCoverEveryCandidate)
{
    const ExperimentSpec spec = smallSpec();
    SimConfig config = makeFastConfig();
    config.jobs = 1;
    BatchExperiment exp(spec, config);
    exp.runSamplePhase();
    const std::vector<CoscheduleSample> samples =
        exp.coscheduleSamples();
    ASSERT_EQ(samples.size(), exp.schedules().size());
    for (const CoscheduleSample &sample : samples) {
        EXPECT_FALSE(sample.tuples.empty());
        EXPECT_GT(sample.ws, 0.0);
    }
}

/** Every stat under @p prefix, rendered, keyed by its path. */
std::map<std::string, std::string>
subtree(const stats::Registry &registry, const std::string &prefix)
{
    std::map<std::string, std::string> out;
    for (const stats::Stat *stat : registry.sorted()) {
        if (stat->path().starts_with(prefix))
            out[stat->path()] = stat->renderText();
    }
    return out;
}

TEST(MachineExperiment, PublishedMachineCountersMatchAFromScratchRun)
{
    // The "machine" subtree comes from the best candidate's own sweep
    // run, a fork of its allocation's warm engine. The reference
    // builds that candidate from scratch: a fresh machine, one period
    // of its allocation's warm-up, then its schedule to the symbios
    // length. Sampled, so no golden pins this case.
    SimConfig config = makeFastConfig();
    applyOverride(config, "sample=7000:1000:2000");
    config.jobs = 2;
    BatchExperiment exp(smallSpec(), config);
    exp.runSamplePhase();
    exp.runSymbiosValidation();

    stats::Registry published;
    exp.publishStats(stats::Group(published, "e"));
    const auto actual = subtree(published, "e.machine.");

    const std::vector<double> &symbios = exp.symbiosWs();
    const auto best = static_cast<std::size_t>(
        std::max_element(symbios.begin(), symbios.end()) -
        symbios.begin());
    const ParallelScheduleRunner::SweepSpec sweep =
        exp.sweep(exp.schedules());
    JobMix mix = sweep.makeMix(best);
    MachineEngine engine(sweep.machine, sweep.timesliceCycles,
                         sweep.sample);
    const MachineSchedule warm = sweep.warmup(best);
    engine.runSchedule(mix, warm, {warm.periodTimeslices()});
    const std::uint64_t symbios_slices = std::max<std::uint64_t>(
        1, config.symbiosCycles() / sweep.timesliceCycles);
    const MachineEngine::MachineRunResult run =
        engine.runSchedule(mix, exp.schedules()[best], {symbios_slices})
            .front();

    stats::Registry reference;
    const stats::Group group =
        stats::Group(reference, "e").group("machine");
    group.info("best_schedule") = exp.schedules()[best].label();
    run.memory.registerStats(group);
    for (std::size_t k = 0; k < run.perCore.size(); ++k)
        run.perCore[k].registerStats(
            group.group("core" + std::to_string(k)).group("perf"));

    EXPECT_EQ(actual, subtree(reference, "e.machine."));
    EXPECT_TRUE(actual.contains("e.machine.core1.l2_contention.miss_share"));
    EXPECT_NE(actual.at("e.machine.l2.hits"), "0");
}

} // namespace
} // namespace sos
