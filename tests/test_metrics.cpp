/** @file Unit tests for weighted speedup and calibration. */

#include <gtest/gtest.h>

#include <array>

#include "common/thread_pool.hh"
#include "cpu/machine.hh"
#include "cpu/sampling.hh"
#include "metrics/calibrator.hh"
#include "metrics/weighted_speedup.hh"
#include "sched/job.hh"
#include "sched/jobmix.hh"
#include "trace/workload_library.hh"

namespace sos {
namespace {

TEST(WeightedSpeedup, PaperWorkedExampleFairShare)
{
    // Section 4: solo IPCs 2 and 1; coscheduled for 1 M cycles the
    // jobs contribute 1 M and 0.5 M instructions -> WS = 1.
    const std::vector<JobProgress> jobs{{1000000, 2.0}, {500000, 1.0}};
    EXPECT_DOUBLE_EQ(weightedSpeedup(jobs, 1000000), 1.0);
}

TEST(WeightedSpeedup, PaperWorkedExampleSpeedup)
{
    // ...and 1.2 M / 0.6 M instructions -> WS = 1.2.
    const std::vector<JobProgress> jobs{{1200000, 2.0}, {600000, 1.0}};
    EXPECT_DOUBLE_EQ(weightedSpeedup(jobs, 1000000), 1.2);
}

TEST(WeightedSpeedup, SoloJobIsOne)
{
    const std::vector<JobProgress> jobs{{500000, 0.5}};
    EXPECT_DOUBLE_EQ(weightedSpeedup(jobs, 1000000), 1.0);
}

TEST(WeightedSpeedup, TimeSharingIsOneEvenWhenUnfair)
{
    // Two jobs time-shared 80/20 on one context: each contributes its
    // solo IPC for its share; WS is still 1 (Section 4's point).
    const std::vector<JobProgress> jobs{
        {static_cast<std::uint64_t>(0.8 * 1000000 * 2.0), 2.0},
        {static_cast<std::uint64_t>(0.2 * 1000000 * 1.0), 1.0}};
    EXPECT_DOUBLE_EQ(weightedSpeedup(jobs, 1000000), 1.0);
}

TEST(WeightedSpeedup, PathologicalInterferenceBelowOne)
{
    const std::vector<JobProgress> jobs{{300000, 2.0}, {200000, 1.0}};
    EXPECT_LT(weightedSpeedup(jobs, 1000000), 1.0);
}

TEST(WeightedSpeedup, HighIpcThreadCannotInflate)
{
    // Favouring the high-IPC job does not raise WS beyond what the
    // low-IPC job loses: normalization equalizes contributions.
    const std::vector<JobProgress> favored{{1900000, 2.0}, {50000, 1.0}};
    const std::vector<JobProgress> fair{{1000000, 2.0}, {500000, 1.0}};
    EXPECT_LE(weightedSpeedup(favored, 1000000),
              weightedSpeedup(fair, 1000000) + 1e-9);
}

TEST(WeightedSpeedup, MixOverloadUsesJobReferences)
{
    JobMix mix(3);
    mix.addJob("FP");
    mix.addJob("GCC");
    mix.job(0).soloIpc = 2.0;
    mix.job(1).soloIpc = 0.5;
    const double ws = weightedSpeedup(mix, {1000000, 250000}, 1000000);
    EXPECT_DOUBLE_EQ(ws, 1.0);
}

TEST(WeightedSpeedup, RequiresCalibration)
{
    const std::vector<JobProgress> jobs{{100, 0.0}};
    EXPECT_DEATH(weightedSpeedup(jobs, 1000), "calibrated");
}

TEST(Calibrator, ProducesPositiveIpc)
{
    Calibrator calib(CoreParams{}, MemParams{}, 20000, 50000);
    const double ipc = calib.soloIpc("EP");
    EXPECT_GT(ipc, 0.3);
    EXPECT_LT(ipc, 8.0);
}

TEST(Calibrator, CachesResults)
{
    Calibrator calib(CoreParams{}, MemParams{}, 20000, 50000);
    const double first = calib.soloIpc("GCC");
    const double second = calib.soloIpc("GCC");
    EXPECT_DOUBLE_EQ(first, second);
}

TEST(Calibrator, DeterministicAcrossInstances)
{
    Calibrator a(CoreParams{}, MemParams{}, 20000, 50000);
    Calibrator b(CoreParams{}, MemParams{}, 20000, 50000);
    EXPECT_DOUBLE_EQ(a.soloIpc("MG"), b.soloIpc("MG"));
}

TEST(Calibrator, RanksComputeAboveMemoryBound)
{
    Calibrator calib(CoreParams{}, MemParams{}, 40000, 100000);
    EXPECT_GT(calib.soloIpc("EP"), calib.soloIpc("IS"));
    EXPECT_GT(calib.soloIpc("FP"), calib.soloIpc("GCC"));
}

TEST(Calibrator, MultithreadedReferenceUsesAllThreads)
{
    CoreParams params;
    params.numContexts = 2;
    Calibrator calib(params, MemParams{}, 30000, 80000);
    const double one = calib.soloIpc("mt_EP", 1);
    const double two = calib.soloIpc("mt_EP", 2);
    EXPECT_GT(two, one * 1.1); // the parallel job uses both contexts
}

TEST(Calibrator, CalibratesWholeMix)
{
    JobMix mix(4);
    mix.addJob("FP");
    mix.addJob("GO");
    Calibrator calib(CoreParams{}, MemParams{}, 20000, 50000);
    calib.calibrate(mix);
    EXPECT_GT(mix.job(0).soloIpc, 0.0);
    EXPECT_GT(mix.job(1).soloIpc, 0.0);
}

/** Each reference measured one at a time into a private table. */
std::vector<double>
oneAtATime(const CoreParams &core, const SampleWindows &sample,
           const std::vector<SoloKey> &keys)
{
    SoloIpcTable table;
    Calibrator calib(core, MemParams{}, 20000, 50000, table);
    calib.setSampling(sample);
    std::vector<double> ipcs;
    for (const SoloKey &key : keys)
        ipcs.push_back(calib.soloIpc(key.workload, key.threads));
    return ipcs;
}

/** Batch @p keys (after caching @p cached) on @p pool. */
std::vector<double>
batched(const CoreParams &core, const SampleWindows &sample,
        const std::vector<SoloKey> &keys, const SoloKey &cached,
        ThreadPool &pool)
{
    SoloIpcTable table;
    Calibrator calib(core, MemParams{}, 20000, 50000, table);
    calib.setSampling(sample);
    calib.soloIpc(cached.workload, cached.threads);
    return calib.soloIpcs(keys, pool);
}

/** Duplicates, a 2-thread ARRAY key and an already-cached key. */
std::vector<SoloKey>
mixedKeys()
{
    return {{"GCC", 1}, {"ARRAY", 2}, {"EP", 1},
            {"GCC", 1}, {"MG", 1},    {"ARRAY", 2}};
}

CoreParams
twoContexts()
{
    CoreParams params;
    params.numContexts = 2;
    return params;
}

TEST(Calibrator, BatchMatchesOneAtATimeBitForBit)
{
    const std::vector<double> expected =
        oneAtATime(twoContexts(), SampleWindows{}, mixedKeys());
    for (int workers : {1, 2, 8}) {
        ThreadPool pool(workers);
        const std::vector<double> got = batched(
            twoContexts(), SampleWindows{}, mixedKeys(), {"EP", 1}, pool);
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t k = 0; k < got.size(); ++k)
            EXPECT_EQ(got[k], expected[k]) << "key " << k << " at "
                                           << workers << " workers";
    }
}

TEST(Calibrator, SampledBatchMatchesOneAtATimeBitForBit)
{
    SampleWindows sample;
    sample.fastForward = 4000;
    sample.warm = 500;
    sample.measure = 1500;
    ASSERT_TRUE(sample.enabled());
    const std::vector<double> expected =
        oneAtATime(twoContexts(), sample, mixedKeys());
    // Sampled references are not the full-detail ones.
    EXPECT_NE(expected,
              oneAtATime(twoContexts(), SampleWindows{}, mixedKeys()));
    for (int workers : {1, 2, 8}) {
        ThreadPool pool(workers);
        EXPECT_EQ(batched(twoContexts(), sample, mixedKeys(), {"EP", 1},
                          pool),
                  expected)
            << workers << " workers";
    }
}

TEST(Calibrator, BatchMeasuresEachKeyOnce)
{
    SoloIpcTable table;
    ThreadPool pool(8);
    Calibrator calib(twoContexts(), MemParams{}, 20000, 50000, table);
    calib.soloIpc("EP");
    EXPECT_EQ(table.measured(), 1u);

    // GCC, ARRAY/2 and MG are new; EP is cached; GCC and ARRAY/2
    // repeat.
    const std::vector<double> ipcs = calib.soloIpcs(mixedKeys(), pool);
    EXPECT_EQ(table.measured(), 4u);
    EXPECT_EQ(ipcs[0], ipcs[3]);
    EXPECT_EQ(ipcs[1], ipcs[5]);

    // Another calibrator on the same table measures nothing new.
    Calibrator other(twoContexts(), MemParams{}, 20000, 50000, table);
    EXPECT_EQ(other.soloIpcs(mixedKeys(), pool), ipcs);
    EXPECT_EQ(table.measured(), 4u);
}

TEST(Calibrator, BatchSpansCalibratorsAndDedupsSharedConfigs)
{
    SoloIpcTable table;
    Calibrator a(twoContexts(), MemParams{}, 20000, 50000, table);
    Calibrator same(twoContexts(), MemParams{}, 20000, 50000, table);
    CoreParams wide = twoContexts();
    wide.numContexts = 4;
    Calibrator wider(wide, MemParams{}, 20000, 50000, table);
    CoreParams narrow_rob = twoContexts();
    narrow_rob.robSize = 64;
    Calibrator other(narrow_rob, MemParams{}, 20000, 50000, table);

    ThreadPool pool(4);
    const std::vector<double> ipcs = Calibrator::measure(
        {{&a, {"FP", 1}},
         {&same, {"FP", 1}},
         {&wider, {"FP", 1}},
         {&other, {"FP", 1}}},
        pool);
    // a, same and wider share a key: a solo run does not depend on the
    // core's context count. other's core differs in a field the solo
    // run reads.
    EXPECT_EQ(table.measured(), 2u);
    EXPECT_EQ(ipcs[0], ipcs[1]);
    EXPECT_EQ(ipcs[0], ipcs[2]);
    EXPECT_NE(ipcs[0], ipcs[3]);
    EXPECT_EQ(ipcs[0],
              oneAtATime(twoContexts(), SampleWindows{}, {{"FP", 1}})
                  .front());
}

/**
 * The solo run Calibrator::measureOne() makes -- same job seed,
 * private machine, warm-up then measurement at @p sample's fidelity --
 * on a core of @p contexts contexts instead of key.threads.
 */
double
soloRunAt(CoreParams core, const MemParams &mem,
          const SampleWindows &sample, const SoloKey &key, int contexts)
{
    core.numContexts = contexts;
    Job job(1, WorkloadLibrary::instance().get(key.workload),
            0xca11b7a7eULL, key.threads, /*adaptive=*/false);
    Machine machine(core, mem);
    SmtCore &smt = machine.core(0);
    for (int t = 0; t < key.threads; ++t)
        smt.attachThread(t, job.binding(t));
    SamplingController sampler(smt, sample);
    SamplingTally tally;
    PerfCounters warmup;
    sampler.run(20000, warmup, tally);
    PerfCounters measured;
    sampler.run(30000, measured, tally);
    return measured.ipc();
}

TEST(Calibrator, ReferenceIsIndependentOfContextCount)
{
    // soloIpcKey leaves core.numContexts out of the table key and
    // measureOne runs on key.threads contexts; both rest on this: the
    // contexts a solo run leaves empty do not change its IPC, bit for
    // bit, at either fidelity and on a narrowed core as well.
    CoreParams narrow_core;
    narrow_core.robSize = 64;
    narrow_core.fetchThreads = 1;
    narrow_core.fetchWidth = 4;
    narrow_core.intQueueSize = 12;
    MemParams narrow_mem;
    narrow_mem.prefetch.enabled = true;
    narrow_mem.l2.sizeBytes = 512 * 1024;
    SampleWindows sampled;
    sampled.fastForward = 2250;
    sampled.warm = 62;
    sampled.measure = 188;
    ASSERT_TRUE(sampled.enabled());

    struct Setting
    {
        CoreParams core;
        MemParams mem;
        SampleWindows sample;
    };
    const std::vector<Setting> settings = {
        {CoreParams{}, MemParams{}, SampleWindows{}},
        {CoreParams{}, MemParams{}, sampled},
        {narrow_core, narrow_mem, SampleWindows{}},
        {narrow_core, narrow_mem, sampled},
    };
    std::vector<SoloKey> keys;
    for (const std::string &workload : WorkloadLibrary::instance().names()) {
        for (int threads : {1, 2})
            keys.push_back({workload, threads});
    }

    ThreadPool pool(4);
    for (std::size_t s = 0; s < settings.size(); ++s) {
        const Setting &setting = settings[s];
        // The calibrator's references, asked of its widest core.
        SoloIpcTable table;
        CoreParams widest = setting.core;
        widest.numContexts = MaxContexts;
        Calibrator calib(widest, setting.mem, 20000, 30000, table);
        calib.setSampling(setting.sample);
        const std::vector<double> references = calib.soloIpcs(keys, pool);

        // Each key's solo run on cores of three sizes.
        std::vector<std::array<int, 3>> contexts(keys.size());
        std::vector<std::array<double, 3>> ipcs(keys.size());
        pool.run(keys.size(), [&](std::size_t k) {
            const int threads = keys[k].threads;
            contexts[k] = {threads, threads + 1, MaxContexts};
            for (std::size_t c = 0; c < contexts[k].size(); ++c) {
                ipcs[k][c] = soloRunAt(setting.core, setting.mem,
                                       setting.sample, keys[k],
                                       contexts[k][c]);
            }
        });
        for (std::size_t k = 0; k < keys.size(); ++k) {
            for (std::size_t c = 0; c < contexts[k].size(); ++c) {
                EXPECT_EQ(ipcs[k][c], references[k])
                    << keys[k].workload << "/" << keys[k].threads << " on "
                    << contexts[k][c] << " contexts, setting " << s;
            }
        }
    }
}

TEST(Calibrator, BatchRejectsMoreThreadsThanContexts)
{
    SoloIpcTable table;
    Calibrator calib(twoContexts(), MemParams{}, 20000, 50000, table);
    ThreadPool pool(8);
    EXPECT_DEATH(calib.soloIpcs({{"GCC", 1}, {"ARRAY", 3}}, pool),
                 "more threads than contexts");
    EXPECT_DEATH(calib.soloIpc("ARRAY", 3), "more threads than contexts");
}

TEST(Calibrator, BatchInsidePoolTaskMatches)
{
    // A batch started from a task of the same pool is a nested batch
    // that fans out onto the pool's idle workers.
    const std::vector<double> expected =
        oneAtATime(twoContexts(), SampleWindows{}, mixedKeys());
    for (int workers : {1, 2, 8}) {
        ThreadPool pool(workers);
        std::vector<std::vector<double>> got(2);
        pool.run(2, [&](std::size_t t) {
            got[t] = batched(twoContexts(), SampleWindows{}, mixedKeys(),
                             {"EP", 1}, pool);
        });
        EXPECT_EQ(got[0], expected) << workers << " workers";
        EXPECT_EQ(got[1], expected) << workers << " workers";
    }
}

} // namespace
} // namespace sos
