/**
 * @file
 * The snapshot-fork determinism contract (DESIGN.md §5c): forking a
 * warmed simulation is semantics-preserving. A fork's measured
 * interval must be bit-identical to letting the original warmed run
 * continue, on one core and on a whole machine; and the experiment
 * sweeps must produce byte-identical manifests with the snapshot fast
 * path on or off, at any worker count.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hh"
#include "sim/batch_experiment.hh"
#include "sim/params_io.hh"
#include "sim/snapshot.hh"
#include "stats/manifest.hh"
#include "stats/stats.hh"

namespace sos {
namespace {

TEST(Snapshot, SingleCoreForkMatchesOriginal)
{
    const SimConfig config = makeFastConfig();
    const ExperimentSpec &spec = experimentByLabel("Jsb(4,2,2)");

    JobMix mix = spec.makeMix(config.seed);
    Machine machine(config.coreFor(spec.level), config.mem);
    MachineEngine engine(machine, config.timesliceCycles());
    const MachineSchedule warm(
        Schedule::fromRotation({0, 1, 2, 3}, spec.level, spec.swap));
    engine.runSchedule(mix, warm, {warm.periodTimeslices()});

    const MachineSnapshot snapshot(machine, mix, engine);

    // The original warmed run simply continues; the fork re-creates
    // that state from the snapshot. Same schedule, same interval.
    const MachineSchedule measured(
        Schedule::fromRotation({3, 1, 0, 2}, spec.level, spec.swap));
    const MachineEngine::MachineRunResult original =
        engine.runSchedule(mix, measured, {6}).front();

    MachineSnapshot::Fork fork(snapshot);
    MachineEngine forked_engine(fork.machine(),
                                config.timesliceCycles());
    fork.adopt(forked_engine);
    const MachineEngine::MachineRunResult forked =
        forked_engine.runSchedule(fork.mix(), measured, {6}).front();

    EXPECT_EQ(forked.total, original.total);
    EXPECT_EQ(forked.jobRetired, original.jobRetired);
    EXPECT_EQ(forked.sliceIpc, original.sliceIpc);
    EXPECT_EQ(forked.sliceMixImbalance, original.sliceMixImbalance);
    EXPECT_EQ(forked.cycles, original.cycles);
    EXPECT_GT(forked.total.retired, 0u);
}

TEST(Snapshot, MachineForkMatchesOriginal)
{
    const SimConfig config = makeFastConfig();
    const ExperimentSpec spec{
        .label = "Jm(4,2,2,2)",
        .entries = {{"FP"}, {"MG"}, {"GCC"}, {"IS"}},
        .numCores = 2,
    };

    const MachineScheduleSpace space(spec.numUnits(), spec.numCores,
                                     spec.level, spec.swap);
    Rng rng(7);
    const std::vector<MachineSchedule> schedules = space.sample(2, rng);
    ASSERT_EQ(schedules.size(), 2u);

    JobMix mix = spec.makeMix(0x5eed);
    Machine machine(config.coreFor(spec.level), config.mem,
                    spec.numCores);
    MachineEngine engine(machine, config.timesliceCycles());
    engine.runSchedule(mix, schedules[0],
                       {schedules[0].periodTimeslices()});

    const MachineSnapshot snapshot(machine, mix, engine);

    const MachineEngine::MachineRunResult original =
        engine.runSchedule(mix, schedules[1], {6}).front();

    MachineSnapshot::Fork fork(snapshot);
    MachineEngine forked_engine(fork.machine(),
                                config.timesliceCycles());
    fork.adopt(forked_engine);
    const MachineEngine::MachineRunResult forked =
        forked_engine.runSchedule(fork.mix(), schedules[1], {6})
            .front();

    EXPECT_EQ(forked.total, original.total);
    EXPECT_EQ(forked.perCore, original.perCore);
    EXPECT_EQ(forked.jobRetired, original.jobRetired);
    EXPECT_EQ(forked.sliceIpc, original.sliceIpc);
    EXPECT_EQ(forked.sliceMixImbalance, original.sliceMixImbalance);
    EXPECT_EQ(forked.cycles, original.cycles);
    EXPECT_GT(forked.total.retired, 0u);
}

TEST(Snapshot, RepeatedForksAreIndependent)
{
    const SimConfig config = makeFastConfig();
    const ExperimentSpec &spec = experimentByLabel("Jsb(4,2,2)");

    JobMix mix = spec.makeMix(config.seed);
    Machine machine(config.coreFor(spec.level), config.mem);
    MachineEngine engine(machine, config.timesliceCycles());
    const MachineSchedule warm(
        Schedule::fromRotation({0, 1, 2, 3}, spec.level, spec.swap));
    engine.runSchedule(mix, warm, {warm.periodTimeslices()});
    const MachineSnapshot snapshot(machine, mix, engine);

    const MachineSchedule measured(
        Schedule::fromRotation({2, 0, 3, 1}, spec.level, spec.swap));
    const auto run_fork = [&] {
        MachineSnapshot::Fork fork(snapshot);
        MachineEngine forked_engine(fork.machine(),
                                    config.timesliceCycles());
        fork.adopt(forked_engine);
        return forked_engine.runSchedule(fork.mix(), measured, {4})
            .front();
    };
    // Running one fork must not perturb the snapshot: a second fork
    // reproduces the first bit-for-bit.
    const MachineEngine::MachineRunResult first = run_fork();
    const MachineEngine::MachineRunResult second = run_fork();
    EXPECT_EQ(first.total, second.total);
    EXPECT_EQ(first.jobRetired, second.jobRetired);
    EXPECT_EQ(first.sliceIpc, second.sliceIpc);
}

/** Full manifest of a batch experiment under the given host knobs. */
std::string
batchManifest(bool snapshot, int jobs)
{
    SimConfig config = makeFastConfig();
    config.snapshot = snapshot;
    config.jobs = jobs;
    BatchExperiment exp(experimentByLabel("Jsb(4,2,2)"), config);
    exp.runSamplePhase();
    exp.runSymbiosValidation();

    stats::Registry registry;
    exp.publishStats(stats::Group(registry, "experiment"));
    stats::Manifest manifest;
    manifest.tool = "test_snapshot";
    manifest.gitRev = "pinned";
    manifest.seed = config.seed;
    manifest.config = configPairs(config);
    return renderManifest(manifest, registry);
}

TEST(Snapshot, BatchManifestIdenticalAcrossSnapshotAndJobs)
{
    // The escape hatch (SOS_SNAPSHOT=0) and the fast path must be
    // observationally indistinguishable: every stat, every formatted
    // double, at every worker count. configPairs omits the snapshot
    // knob (like jobs), so the config blocks agree too.
    const std::string reference = batchManifest(false, 1);
    for (const bool snapshot : {false, true}) {
        for (const int jobs : {1, 2, 8})
            EXPECT_EQ(reference, batchManifest(snapshot, jobs));
    }
}

TEST(Snapshot, MachineExperimentIdenticalAcrossSnapshotAndJobs)
{
    const ExperimentSpec spec{
        .label = "Jm(4,2,2,2)",
        .entries = {{"FP"}, {"MG"}, {"GCC"}, {"IS"}},
        .numCores = 2,
    };

    struct Observed
    {
        std::vector<std::string> keys;
        std::vector<double> sampleWs;
        std::vector<double> symbiosWs;
    };
    std::vector<Observed> runs;
    for (const bool snapshot : {false, true}) {
        for (const int jobs : {1, 8}) {
            SimConfig config = makeFastConfig();
            config.snapshot = snapshot;
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
    }
    ASSERT_EQ(runs.size(), 4u);
    for (std::size_t i = 1; i < runs.size(); ++i) {
        EXPECT_EQ(runs[i].keys, runs[0].keys);
        EXPECT_EQ(runs[i].sampleWs, runs[0].sampleWs);
        EXPECT_EQ(runs[i].symbiosWs, runs[0].symbiosWs);
    }
    EXPECT_FALSE(runs[0].symbiosWs.empty());
}

} // namespace
} // namespace sos
