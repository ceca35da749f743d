/**
 * @file
 * The parallel sweep layer's determinism contract: schedule profiles
 * are a pure function of the experiment, never of the worker count.
 * Parallel results must be bit-identical to serial (SOS_JOBS=1), for
 * both a full exhaustively-profiled space and a sampled one.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "sim/batch_experiment.hh"
#include "sim/parallel_runner.hh"
#include "sim/params_io.hh"
#include "stats/manifest.hh"
#include "stats/stats.hh"
#include "stats/trace.hh"

namespace sos {
namespace {

/** Every counter weighted speedup or a predictor could ever read. */
void
expectCountersIdentical(const PerfCounters &a, const PerfCounters &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.fetched, b.fetched);
    EXPECT_EQ(a.dispatched, b.dispatched);
    EXPECT_EQ(a.issued, b.issued);
    EXPECT_EQ(a.retired, b.retired);
    EXPECT_EQ(a.intOps, b.intOps);
    EXPECT_EQ(a.fpOps, b.fpOps);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.barriers, b.barriers);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
    EXPECT_EQ(a.spinOps, b.spinOps);
    EXPECT_EQ(a.confIntQueue, b.confIntQueue);
    EXPECT_EQ(a.confFpQueue, b.confFpQueue);
    EXPECT_EQ(a.confIntRegs, b.confIntRegs);
    EXPECT_EQ(a.confFpRegs, b.confFpRegs);
    EXPECT_EQ(a.confRob, b.confRob);
    EXPECT_EQ(a.confIntUnits, b.confIntUnits);
    EXPECT_EQ(a.confFpUnits, b.confFpUnits);
    EXPECT_EQ(a.confLsPorts, b.confLsPorts);
    EXPECT_EQ(a.l1iHits, b.l1iHits);
    EXPECT_EQ(a.l1iMisses, b.l1iMisses);
    EXPECT_EQ(a.l1dHits, b.l1dHits);
    EXPECT_EQ(a.l1dMisses, b.l1dMisses);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.itlbMisses, b.itlbMisses);
    EXPECT_EQ(a.dtlbMisses, b.dtlbMisses);
    EXPECT_EQ(a.slotRetired, b.slotRetired);
}

/** Bit-for-bit equality of two completed experiments. */
void
expectExperimentsIdentical(const BatchExperiment &a,
                           const BatchExperiment &b)
{
    ASSERT_EQ(a.schedules().size(), b.schedules().size());
    for (std::size_t i = 0; i < a.schedules().size(); ++i)
        EXPECT_EQ(a.schedules()[i].key(), b.schedules()[i].key());

    ASSERT_EQ(a.profiles().size(), b.profiles().size());
    for (std::size_t i = 0; i < a.profiles().size(); ++i) {
        const ScheduleProfile &pa = a.profiles()[i];
        const ScheduleProfile &pb = b.profiles()[i];
        EXPECT_EQ(pa.label, pb.label);
        expectCountersIdentical(pa.counters, pb.counters);
        EXPECT_EQ(pa.sliceIpc, pb.sliceIpc);
        EXPECT_EQ(pa.sliceMixImbalance, pb.sliceMixImbalance);
        EXPECT_EQ(pa.sampleWs, pb.sampleWs);
    }

    EXPECT_EQ(a.samplePhaseCycles(), b.samplePhaseCycles());
    ASSERT_EQ(a.symbiosWs().size(), b.symbiosWs().size());
    for (std::size_t i = 0; i < a.symbiosWs().size(); ++i)
        EXPECT_EQ(a.symbiosWs()[i], b.symbiosWs()[i]);
}

/** Run one full experiment with the given worker count. */
BatchExperiment
runWith(const char *label, int jobs)
{
    SimConfig config = makeFastConfig();
    config.jobs = jobs;
    BatchExperiment exp(experimentByLabel(label), config);
    exp.runSamplePhase();
    exp.runSymbiosValidation();
    return exp;
}

TEST(ParallelRunner, FullSpaceMatchesSerialBitForBit)
{
    // Jsb(4,2,2) has only 3 schedules: the sample IS the space.
    const BatchExperiment serial = runWith("Jsb(4,2,2)", 1);
    for (int jobs : {2, 8}) {
        const BatchExperiment parallel = runWith("Jsb(4,2,2)", jobs);
        expectExperimentsIdentical(serial, parallel);
    }
}

TEST(ParallelRunner, SampledSpaceMatchesSerialBitForBit)
{
    // Jsb(6,3,1) samples 10 of its 60 distinct schedules.
    const BatchExperiment serial = runWith("Jsb(6,3,1)", 1);
    const BatchExperiment parallel = runWith("Jsb(6,3,1)", 8);
    EXPECT_EQ(serial.schedules().size(), 10u);
    expectExperimentsIdentical(serial, parallel);
}

/** The experiment's full manifest document at a given worker count. */
std::string
manifestWith(const char *label, int jobs)
{
    SimConfig config = makeFastConfig();
    config.jobs = jobs;
    BatchExperiment exp(experimentByLabel(label), config);
    exp.runSamplePhase();
    exp.runSymbiosValidation();

    stats::Registry registry;
    exp.publishStats(stats::Group(registry, "experiment"));
    stats::Manifest manifest;
    manifest.tool = "test_parallel_runner";
    manifest.gitRev = "pinned";
    manifest.seed = config.seed;
    manifest.config = configPairs(config);
    return renderManifest(manifest, registry);
}

TEST(ParallelRunner, ManifestBitIdenticalAcrossWorkerCounts)
{
    // The PR-1 determinism contract extended to observability: the
    // machine-readable manifest -- every stat, every formatted double
    // -- is byte-identical no matter how the sweep was parallelized.
    // (The config is included, so the jobs knob itself must not leak
    // into the document; configPairs deliberately omits it.)
    const std::string serial = manifestWith("Jsb(4,2,2)", 1);
    for (int jobs : {2, 8})
        EXPECT_EQ(serial, manifestWith("Jsb(4,2,2)", jobs));
}

/** The manifest and decision trace of @p experiments, in order. */
std::string
renderExperiments(
    const std::vector<std::unique_ptr<BatchExperiment>> &experiments,
    const SimConfig &config)
{
    stats::Registry registry;
    stats::EventTrace trace;
    const stats::Group group(registry, "experiments");
    for (const std::unique_ptr<BatchExperiment> &exp : experiments) {
        exp->publishStats(
            group.group(stats::sanitizeSegment(exp->spec().label)));
        exp->recordTrace(trace);
    }
    stats::Manifest manifest;
    manifest.tool = "test_parallel_runner";
    manifest.gitRev = "pinned";
    manifest.seed = config.seed;
    manifest.config = configPairs(config);
    return renderManifest(manifest, registry) + trace.render();
}

TEST(RunExperiments, OverlappedMatchesSerialLoop)
{
    std::vector<ExperimentSpec> specs;
    for (const char *label :
         {"Jsb(4,2,2)", "Jsb(5,2,1)", "Jsb(6,3,1)", "Jsl(6,3,1)"})
        specs.push_back(experimentByLabel(label));
    // Short phases: the test pins orchestration, not fidelity.
    SimConfig config = makeFastConfig();
    config.cycleScale = 2000;
    config.symbiosSimCycles = 100000;
    config.calibWarmupCycles = 50000;
    config.calibMeasureCycles = 50000;

    // The plain serial loop, on its own table.
    SoloIpcTable serial_table;
    ThreadPool serial_pool(1);
    std::vector<std::unique_ptr<BatchExperiment>> serial;
    for (const ExperimentSpec &spec : specs) {
        serial.push_back(std::make_unique<BatchExperiment>(
            spec, config, serial_pool, serial_table));
        serial.back()->runSamplePhase();
        serial.back()->runSymbiosValidation();
    }
    const std::string expected = renderExperiments(serial, config);

    // One key per (workload, threads): the core configuration differs
    // only by level here, and a solo reference does not depend on the
    // level.
    std::set<std::pair<std::string, int>> keys;
    for (const ExperimentSpec &spec : specs) {
        for (const ExperimentSpec::Entry &entry : spec.entries)
            keys.emplace(entry.workload, entry.threads);
    }
    EXPECT_EQ(keys.size(), 6u);
    EXPECT_EQ(serial_table.measured(), keys.size());

    for (int workers : {1, 2, 8}) {
        SoloIpcTable table;
        ThreadPool pool(workers);
        const std::vector<std::unique_ptr<BatchExperiment>> overlapped =
            runExperiments(specs, config, pool, table);
        // No key is measured twice, however the constructors overlap.
        EXPECT_EQ(table.measured(), keys.size()) << workers << " workers";
        ASSERT_EQ(overlapped.size(), specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i) {
            EXPECT_EQ(overlapped[i]->spec().label, specs[i].label);
            expectExperimentsIdentical(*serial[i], *overlapped[i]);
        }
        EXPECT_EQ(renderExperiments(overlapped, config), expected)
            << workers << " workers";
    }
}

/** Field-for-field equality of two runs of one candidate. */
void
expectRunIdentical(const ParallelScheduleRunner::ScheduleRun &a,
                   const ParallelScheduleRunner::ScheduleRun &b)
{
    expectCountersIdentical(a.run.total, b.run.total);
    ASSERT_EQ(a.run.perCore.size(), b.run.perCore.size());
    for (std::size_t k = 0; k < a.run.perCore.size(); ++k)
        expectCountersIdentical(a.run.perCore[k], b.run.perCore[k]);
    EXPECT_EQ(a.run.jobRetired, b.run.jobRetired);
    EXPECT_EQ(a.run.sliceIpc, b.run.sliceIpc);
    EXPECT_EQ(a.run.sliceMixImbalance, b.run.sliceMixImbalance);
    EXPECT_EQ(a.run.cycles, b.run.cycles);
    EXPECT_EQ(a.run.sampling, b.run.sampling);
    EXPECT_EQ(a.run.memory, b.run.memory);
    EXPECT_EQ(a.ws, b.ws);
}

TEST(ParallelRunner, CheckpointsEqualSeparateRuns)
{
    // One pass read at two lengths must measure exactly what two
    // separate runs of those lengths measure, whichever length comes
    // first, on one core and on a CMP, at both fidelity levels.
    const ExperimentSpec cmp{
        .label = "Jm(4,2,2,2)",
        .entries = {{"FP"}, {"MG"}, {"GCC"}, {"IS"}},
        .numCores = 2,
    };
    const ParallelScheduleRunner runner(4);
    for (const ExperimentSpec &spec :
         {experimentByLabel("Jsb(4,2,2)"), cmp}) {
        for (const char *variant :
             {"sample=off", "sample=7000:1000:2000"}) {
            SCOPED_TRACE(spec.label + " " + variant);
            SimConfig config = makeFastConfig();
            applyOverride(config, variant);
            const BatchExperiment exp(spec, config);
            Rng rng(7);
            const std::vector<MachineSchedule> schedules =
                exp.space().sample(4, rng);
            const ParallelScheduleRunner::SweepSpec sweep =
                exp.sweep(schedules);
            const auto only = [&](std::uint64_t length) {
                return runner.runAll(sweep, schedules, [&](std::size_t) {
                    return std::vector{length};
                });
            };
            for (const auto &[first, second] :
                 {std::pair<std::uint64_t, std::uint64_t>{3, 7},
                  {7, 3},
                  {4, 4}}) {
                const auto fused =
                    runner.runAll(sweep, schedules, [&](std::size_t) {
                        return std::vector{first, second};
                    });
                const auto a = only(first);
                const auto b = only(second);
                ASSERT_EQ(fused.size(), schedules.size());
                for (std::size_t i = 0; i < fused.size(); ++i) {
                    ASSERT_EQ(fused[i].size(), 2u);
                    expectRunIdentical(fused[i][0], a[i][0]);
                    expectRunIdentical(fused[i][1], b[i][0]);
                    EXPECT_EQ(fused[i][0].run.cycles,
                              first * sweep.timesliceCycles);
                }
                // The sampled variant exercises a non-empty tally.
                EXPECT_EQ(fused[0][0].run.sampling.periods > 0,
                          config.sample.enabled());
            }
        }
    }
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce)
{
    for (int workers : {1, 2, 8}) {
        ThreadPool pool(workers);
        std::vector<std::atomic<int>> hits(257);
        pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
        for (const std::atomic<int> &hit : hits)
            EXPECT_EQ(hit.load(), 1);
    }
}

TEST(ThreadPool, ReusableAcrossBatches)
{
    ThreadPool pool(4);
    for (int round = 0; round < 20; ++round) {
        std::atomic<int> sum{0};
        pool.run(round + 1, [&](std::size_t) { ++sum; });
        EXPECT_EQ(sum.load(), round + 1);
    }
}

TEST(ThreadPool, ZeroTasksIsANoop)
{
    ThreadPool pool(4);
    pool.run(0, [](std::size_t) { FAIL() << "task ran"; });
}

TEST(ThreadPool, PropagatesTaskExceptions)
{
    for (int workers : {1, 4}) {
        ThreadPool pool(workers);
        EXPECT_THROW(pool.run(16,
                              [](std::size_t i) {
                                  if (i == 7)
                                      throw std::runtime_error("boom");
                              }),
                     std::runtime_error);
        // The pool survives a throwing batch.
        std::atomic<int> sum{0};
        pool.run(8, [&](std::size_t) { ++sum; });
        EXPECT_EQ(sum.load(), 8);
    }
}

TEST(ThreadPool, NestedBatchRunsEveryIndexOnce)
{
    for (int workers : {1, 2, 4, 8}) {
        ThreadPool pool(workers);
        constexpr std::size_t outer = 12;
        constexpr std::size_t inner = 40;
        std::vector<std::atomic<int>> hits(outer * inner);
        pool.run(outer, [&](std::size_t o) {
            pool.run(inner, [&](std::size_t i) { ++hits[o * inner + i]; });
        });
        for (const std::atomic<int> &hit : hits)
            EXPECT_EQ(hit.load(), 1) << workers << " workers";
    }
}

TEST(ThreadPool, ConcurrentSubmittersBothComplete)
{
    ThreadPool pool(4);
    constexpr int rounds = 50;
    std::atomic<int> sums[2] = {0, 0};
    auto submit = [&](int s) {
        for (int round = 0; round < rounds; ++round) {
            pool.run(17, [&](std::size_t) {
                pool.run(3, [&](std::size_t) { ++sums[s]; });
            });
        }
    };
    std::thread first(submit, 0);
    std::thread second(submit, 1);
    first.join();
    second.join();
    EXPECT_EQ(sums[0].load(), rounds * 17 * 3);
    EXPECT_EQ(sums[1].load(), rounds * 17 * 3);
}

TEST(ThreadPool, NestedExceptionReachesOnlyItsSubmitter)
{
    for (int workers : {1, 2, 4, 8}) {
        ThreadPool pool(workers);
        std::atomic<int> caught{0};
        std::atomic<int> ran{0};
        // The outer batch never sees the nested batch's exception.
        EXPECT_NO_THROW(pool.run(8, [&](std::size_t o) {
            try {
                pool.run(16, [&](std::size_t i) {
                    ++ran;
                    if (o == 3 && i == 5)
                        throw std::runtime_error("nested");
                });
            } catch (const std::runtime_error &) {
                ++caught;
            }
        }));
        EXPECT_EQ(caught.load(), 1) << workers << " workers";
        // The throwing batch still drained every index.
        EXPECT_EQ(ran.load(), 8 * 16) << workers << " workers";
    }
}

TEST(ThreadPool, OneWorkerPoolNestsWithoutDeadlock)
{
    ThreadPool pool(1);
    std::atomic<int> leaves{0};
    pool.run(4, [&](std::size_t) {
        pool.run(3, [&](std::size_t) {
            pool.run(2, [&](std::size_t) { ++leaves; });
        });
    });
    EXPECT_EQ(leaves.load(), 4 * 3 * 2);
}

TEST(ThreadPool, ResolveJobsPrefersExplicitRequest)
{
    EXPECT_EQ(resolveJobs(3), 3);
    EXPECT_GE(resolveJobs(0), 1);
}

} // namespace
} // namespace sos
