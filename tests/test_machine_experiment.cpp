/**
 * @file
 * Machine-level experiment tests: a closed experiment on a CMP
 * (Jm(X,C,Y,Z), C > 1) obeys the sweep determinism contract --
 * profiles and symbios WS are bit-identical for any worker count (the
 * SOS_JOBS=1/2/8 acceptance check, run in-process via config.jobs).
 * That the 1-core case is the paper's SMT core is pinned by the batch
 * golden (test_adapter_equivalence).
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/batch_experiment.hh"

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

} // namespace
} // namespace sos
