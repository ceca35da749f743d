/**
 * @file
 * The fork determinism contract (DESIGN.md §5c): forking a warmed
 * engine onto a copy of its mix is semantics-preserving. A fork's
 * measured interval must be bit-identical to letting the original
 * warmed run continue, on one core and on a whole machine; a sweep,
 * which warms one engine per warm-up group and forks it per
 * candidate, must measure exactly what building each candidate from
 * scratch measures; and the experiment sweeps must produce
 * byte-identical manifests at any worker count.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hh"
#include "metrics/weighted_speedup.hh"
#include "sim/batch_experiment.hh"
#include "sim/parallel_runner.hh"
#include "sim/params_io.hh"
#include "stats/manifest.hh"
#include "stats/stats.hh"

namespace sos {
namespace {

/** Each job's counterpart in @p mix, a copy of the forked engine's. */
MachineEngine::JobMap
jobsOf(JobMix &mix)
{
    // Job ids are 1-based insertion order within a mix.
    return [&mix](const Job &job) {
        return &mix.job(static_cast<int>(job.id()) - 1);
    };
}

TEST(Snapshot, SingleCoreForkMatchesOriginal)
{
    const SimConfig config = makeFastConfig();
    const ExperimentSpec &spec = experimentByLabel("Jsb(4,2,2)");

    JobMix mix = spec.makeMix(config.seed);
    MachineEngine engine(
        homogeneousMachine(config.coreFor(spec.level), config.mem),
        config.timesliceCycles());
    const MachineSchedule warm(
        Schedule::fromRotation({0, 1, 2, 3}, spec.level, spec.swap));
    engine.runSchedule(mix, warm, {warm.periodTimeslices()});

    JobMix fork_mix = mix;
    MachineEngine fork(engine, jobsOf(fork_mix));

    // The original warmed run simply continues; the fork carries on
    // from the same warm state. Same schedule, same interval.
    const MachineSchedule measured(
        Schedule::fromRotation({3, 1, 0, 2}, spec.level, spec.swap));
    const MachineEngine::MachineRunResult original =
        engine.runSchedule(mix, measured, {6}).front();
    const MachineEngine::MachineRunResult forked =
        fork.runSchedule(fork_mix, measured, {6}).front();

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
    MachineEngine engine(homogeneousMachine(config.coreFor(spec.level),
                                            config.mem, spec.numCores),
                         config.timesliceCycles());
    engine.runSchedule(mix, schedules[0],
                       {schedules[0].periodTimeslices()});

    JobMix fork_mix = mix;
    MachineEngine fork(engine, jobsOf(fork_mix));

    const MachineEngine::MachineRunResult original =
        engine.runSchedule(mix, schedules[1], {6}).front();
    const MachineEngine::MachineRunResult forked =
        fork.runSchedule(fork_mix, schedules[1], {6}).front();

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
    MachineEngine engine(
        homogeneousMachine(config.coreFor(spec.level), config.mem),
        config.timesliceCycles());
    const MachineSchedule warm(
        Schedule::fromRotation({0, 1, 2, 3}, spec.level, spec.swap));
    engine.runSchedule(mix, warm, {warm.periodTimeslices()});

    const MachineSchedule measured(
        Schedule::fromRotation({2, 0, 3, 1}, spec.level, spec.swap));
    const auto run_fork = [&] {
        JobMix fork_mix = mix;
        MachineEngine fork(engine, jobsOf(fork_mix));
        return fork.runSchedule(fork_mix, measured, {4}).front();
    };
    // Running one fork must not perturb the warm engine: a second
    // fork reproduces the first bit-for-bit.
    const MachineEngine::MachineRunResult first = run_fork();
    const MachineEngine::MachineRunResult second = run_fork();
    EXPECT_EQ(first.total, second.total);
    EXPECT_EQ(first.jobRetired, second.jobRetired);
    EXPECT_EQ(first.sliceIpc, second.sliceIpc);
}

/**
 * Candidate @p i of @p sweep built from scratch, by the recipe alone:
 * a fresh machine, one period of its warm-up, then the schedule for
 * @p length quanta.
 */
ParallelScheduleRunner::ScheduleRun
fromScratch(const ParallelScheduleRunner::SweepSpec &sweep,
            const std::vector<MachineSchedule> &schedules, std::size_t i,
            std::uint64_t length)
{
    JobMix mix = sweep.makeMix(i);
    MachineEngine engine(sweep.machine, sweep.timesliceCycles,
                         sweep.sample);
    const MachineSchedule warm = sweep.warmup(i);
    engine.runSchedule(mix, warm, {warm.periodTimeslices()});
    MachineEngine::MachineRunResult run =
        engine.runSchedule(mix, schedules[i], {length}).front();
    const double ws = weightedSpeedup(mix, run.jobRetired, run.cycles);
    return {std::move(run), ws};
}

TEST(Snapshot, SweepMatchesCandidatesBuiltFromScratch)
{
    // runAll warms one engine per warm-up group and forks it per
    // candidate; that must be invisible next to re-running each
    // candidate's warm-up on its own machine, at every worker count
    // and every checkpoint -- the memory counters included, which a
    // fork inherits from its group's warm-up.
    const ExperimentSpec cmp{
        .label = "Jm(4,2,2,2)",
        .entries = {{"FP"}, {"MG"}, {"GCC"}, {"IS"}},
        .numCores = 2,
    };
    const std::vector<std::uint64_t> lengths = {6, 3};
    for (const ExperimentSpec &spec :
         {experimentByLabel("Jsb(4,2,2)"), cmp}) {
        const BatchExperiment exp(spec, makeFastConfig());
        Rng rng(11);
        const std::vector<MachineSchedule> schedules =
            exp.space().sample(4, rng);
        const ParallelScheduleRunner::SweepSpec sweep =
            exp.sweep(schedules);
        std::vector<std::vector<ParallelScheduleRunner::ScheduleRun>>
            reference(schedules.size());
        for (std::size_t i = 0; i < schedules.size(); ++i) {
            for (const std::uint64_t length : lengths)
                reference[i].push_back(
                    fromScratch(sweep, schedules, i, length));
        }

        for (const int jobs : {1, 2, 8}) {
            SCOPED_TRACE(spec.label + " jobs=" + std::to_string(jobs));
            const ParallelScheduleRunner runner(jobs);
            const auto runs = runner.runAll(
                sweep, schedules, [&](std::size_t) { return lengths; });
            ASSERT_EQ(runs.size(), reference.size());
            for (std::size_t i = 0; i < runs.size(); ++i) {
                ASSERT_EQ(runs[i].size(), lengths.size());
                for (std::size_t c = 0; c < lengths.size(); ++c) {
                    SCOPED_TRACE("candidate " + std::to_string(i) +
                                 " checkpoint " + std::to_string(c));
                    const ParallelScheduleRunner::ScheduleRun &run =
                        runs[i][c];
                    const ParallelScheduleRunner::ScheduleRun &expected =
                        reference[i][c];
                    EXPECT_EQ(run.run.total, expected.run.total);
                    EXPECT_EQ(run.run.perCore, expected.run.perCore);
                    EXPECT_EQ(run.run.memory, expected.run.memory);
                    EXPECT_EQ(run.run.jobRetired, expected.run.jobRetired);
                    EXPECT_EQ(run.run.sliceIpc, expected.run.sliceIpc);
                    EXPECT_EQ(run.run.cycles, expected.run.cycles);
                    EXPECT_EQ(run.ws, expected.ws);
                    EXPECT_GT(run.run.total.retired, 0u);
                    ASSERT_EQ(run.run.memory.cores.size(),
                              static_cast<std::size_t>(spec.numCores));
                    EXPECT_GT(run.run.memory.cores[0].l1d.hits, 0u);
                }
            }
        }
    }
}

TEST(Snapshot, KnobIsGone)
{
    // Every sweep with a warm-up forks; there is no path to select.
    SimConfig config;
    EXPECT_DEATH(applyOverride(config, "snapshot=1"),
                 "unknown configuration key 'snapshot'");
}

/** Full manifest of a batch experiment at @p jobs sweep workers. */
std::string
batchManifest(int jobs)
{
    SimConfig config = makeFastConfig();
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
    // Every stat, every formatted double, at every worker count.
    // configPairs omits jobs, so the config blocks agree too.
    const std::string reference = batchManifest(1);
    for (const int jobs : {2, 8})
        EXPECT_EQ(reference, batchManifest(jobs));
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
    for (const int jobs : {1, 8}) {
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
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[1].keys, runs[0].keys);
    EXPECT_EQ(runs[1].sampleWs, runs[0].sampleWs);
    EXPECT_EQ(runs[1].symbiosWs, runs[0].symbiosWs);
    EXPECT_FALSE(runs[0].symbiosWs.empty());
}

} // namespace
} // namespace sos
