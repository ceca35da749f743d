/** @file Integration tests for the Section 9 open system. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "metrics/calibrator.hh"
#include "sim/experiment_defs.hh"
#include "sim/open_system.hh"
#include "stats/trace.hh"

namespace sos {
namespace {

SimConfig
fast()
{
    return makeFastConfig();
}

OpenSystemConfig
smallSystem(int level)
{
    OpenSystemConfig config;
    config.level = level;
    config.numJobs = 10;
    config.meanJobPaperCycles = 40000000; // short jobs for tests
    config.seed = 77;
    return config;
}

/** @p config with its derived interarrival resolved once. */
OpenSystemConfig
resolved(const SimConfig &sim, OpenSystemConfig config, ThreadPool &pool)
{
    config.meanInterarrivalPaper =
        config.effectiveInterarrivalPaper(sim, pool);
    return config;
}

TEST(OpenSystem, TraceIsDeterministic)
{
    const SimConfig sim = fast();
    ThreadPool pool(resolveJobs(sim.jobs));
    const OpenSystemConfig config = resolved(sim, smallSystem(2), pool);
    const auto a = makeArrivalTrace(sim, config, pool);
    const auto b = makeArrivalTrace(sim, config, pool);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].workload, b[i].workload);
        EXPECT_EQ(a[i].arrivalCycle, b[i].arrivalCycle);
        EXPECT_EQ(a[i].sizeInstructions, b[i].sizeInstructions);
    }
}

TEST(OpenSystem, TraceIsOrderedAndSized)
{
    ThreadPool pool(resolveJobs(fast().jobs));
    const auto trace = makeArrivalTrace(fast(), smallSystem(3), pool);
    ASSERT_EQ(trace.size(), 10u);
    for (std::size_t i = 1; i < trace.size(); ++i)
        EXPECT_GE(trace[i].arrivalCycle, trace[i - 1].arrivalCycle);
    for (const JobArrival &arrival : trace)
        EXPECT_GT(arrival.sizeInstructions, 0u);
}

TEST(OpenSystem, InterarrivalDefaultDerivedFromLoad)
{
    const SimConfig sim = fast();
    ThreadPool pool(resolveJobs(sim.jobs));
    OpenSystemConfig config;
    config.level = 3;
    EXPECT_GT(config.effectiveInterarrivalPaper(sim, pool), 0u);
    config.meanInterarrivalPaper = 12345;
    EXPECT_EQ(config.effectiveInterarrivalPaper(sim, pool), 12345u);
}

TEST(OpenSystem, CapacityBatchMeasuresEachReferenceOnce)
{
    // Probes of several levels share their solo references (a solo run
    // does not depend on the level), so the batch form measures each
    // once, whatever the worker count, and finds what one probe at a
    // time finds.
    const std::vector<int> levels = {2, 3, 4, 6};
    for (int workers : {1, 2, 8}) {
        SimConfig sim = fast();
        // Calibration lengths of this worker count only, so every key
        // is new to the process-wide table.
        sim.calibWarmupCycles = 40003 + static_cast<std::uint64_t>(workers);
        sim.calibMeasureCycles = 40000;
        std::vector<CapacityProbe> probes;
        for (int level : levels)
            probes.push_back({&sim, level});
        ThreadPool pool(workers);
        const std::uint64_t before = SoloIpcTable::shared().measured();
        const std::vector<double> capacities =
            measuredCapacities(probes, pool);
        EXPECT_EQ(SoloIpcTable::shared().measured() - before,
                  openSystemWorkloads().size())
            << workers << " workers";
        ASSERT_EQ(capacities.size(), levels.size());
        for (std::size_t l = 0; l < levels.size(); ++l) {
            EXPECT_EQ(capacities[l], measuredCapacity(sim, levels[l], pool))
                << "level " << levels[l] << ", " << workers << " workers";
        }
    }
}

TEST(OpenSystem, CapacityProbeOverlapMatchesSerial)
{
    // The co-run groups run in the same batch as the solo references
    // they are scored against. The overlap must not move a bit of any
    // capacity, at any worker count, whether the batch measures the
    // references or finds them in the table.
    const std::vector<int> levels = {2, 3, 4, 6};
    for (int workers : {1, 2, 8}) {
        SimConfig sim = fast();
        // Calibration lengths of this test and worker count only, so
        // the first batch finds the process-wide table cold.
        sim.calibWarmupCycles = 40103 + static_cast<std::uint64_t>(workers);
        sim.calibMeasureCycles = 40000;
        std::vector<CapacityProbe> probes;
        for (int level : levels)
            probes.push_back({&sim, level});

        // References first, then the co-runs, on one thread and a
        // private table.
        ThreadPool serial(1);
        SoloIpcTable table;
        std::vector<double> expected;
        for (const CapacityProbe &probe : probes) {
            Calibrator calibrator(sim.referenceCoreFor(probe.level),
                                  sim.referenceMem(), sim.calibWarmupCycles,
                                  sim.calibMeasureCycles, table);
            const std::vector<double> solo = calibrator.soloIpcs(
                soloKeys(openSystemWorkloads()), serial);
            expected.push_back(
                scoreCoRun(simulateCoRunGroups(probe), solo));
        }

        ThreadPool pool(workers);
        const std::uint64_t before = SoloIpcTable::shared().measured();
        const std::vector<double> cold = measuredCapacities(probes, pool);
        const std::uint64_t after_cold = SoloIpcTable::shared().measured();
        const std::vector<double> filled = measuredCapacities(probes, pool);
        EXPECT_EQ(after_cold - before, openSystemWorkloads().size())
            << workers << " workers";
        EXPECT_EQ(SoloIpcTable::shared().measured(), after_cold)
            << workers << " workers";
        EXPECT_EQ(cold, expected) << workers << " workers";
        EXPECT_EQ(filled, expected) << workers << " workers";
    }
}

TEST(OpenSystem, NaiveCompletesAllJobs)
{
    const SimConfig sim = fast();
    ThreadPool pool(resolveJobs(sim.jobs));
    const OpenSystemConfig config = resolved(sim, smallSystem(2), pool);
    const auto trace = makeArrivalTrace(sim, config, pool);
    const auto result =
        runOpenSystem(sim, config, trace, OpenPolicy::Naive, pool);
    EXPECT_EQ(result.completed, 10);
    EXPECT_GT(result.meanResponseCycles, 0.0);
    for (std::uint64_t response : result.responseByArrival)
        EXPECT_GT(response, 0u);
    EXPECT_EQ(result.sampleCycles, 0u); // naive never samples
}

TEST(OpenSystem, SosCompletesAllJobsAndSamples)
{
    const SimConfig sim = fast();
    OpenSystemConfig config = smallSystem(3);
    // Push arrivals close together so the queue exceeds the SMT level
    // and SOS actually has schedules to sample.
    config.meanInterarrivalPaper = config.meanJobPaperCycles / 4;
    ThreadPool pool(resolveJobs(sim.jobs));
    const auto trace = makeArrivalTrace(sim, config, pool);
    const auto result =
        runOpenSystem(sim, config, trace, OpenPolicy::Sos, pool);
    EXPECT_EQ(result.completed, 10);
    EXPECT_GT(result.samplePhases, 0);
}

TEST(OpenSystem, ResponseIncludesQueueingDelay)
{
    const SimConfig sim = fast();
    ThreadPool pool(resolveJobs(sim.jobs));
    const OpenSystemConfig config = resolved(sim, smallSystem(2), pool);
    const auto trace = makeArrivalTrace(sim, config, pool);
    const auto result =
        runOpenSystem(sim, config, trace, OpenPolicy::Naive, pool);
    // Mean response must exceed the mean solo execution time: jobs
    // share the machine.
    const double mean_solo =
        static_cast<double>(sim.scaled(config.meanJobPaperCycles));
    EXPECT_GT(result.meanResponseCycles, 0.5 * mean_solo);
}

TEST(OpenSystem, SystemStaysStable)
{
    const SimConfig sim = fast();
    ThreadPool pool(resolveJobs(sim.jobs));
    const OpenSystemConfig config = resolved(sim, smallSystem(3), pool);
    const auto trace = makeArrivalTrace(sim, config, pool);
    const auto result =
        runOpenSystem(sim, config, trace, OpenPolicy::Naive, pool);
    EXPECT_LT(result.meanJobsInSystem, 12.0);
}

TEST(OpenSystem, ComparisonCoversBothPolicies)
{
    const SimConfig sim = fast();
    const OpenSystemConfig config = smallSystem(2);
    ThreadPool pool(resolveJobs(sim.jobs));
    const auto comparison = compareResponseTimes(sim, config, pool);
    EXPECT_EQ(comparison.naive.completed, 10);
    EXPECT_EQ(comparison.sos.completed, 10);
    EXPECT_EQ(comparison.jobsCompared, 10);
    EXPECT_GT(comparison.naive.meanResponseCycles, 0.0);
    EXPECT_GT(comparison.sos.meanResponseCycles, 0.0);
    // Improvement is a finite percentage (sign depends on the tiny
    // test workload; Figures 5-6 use real sizes).
    EXPECT_LT(std::abs(comparison.improvementPct), 100.0);
}

TEST(OpenSystem, DeterministicPolicyRuns)
{
    const SimConfig sim = fast();
    ThreadPool pool(resolveJobs(sim.jobs));
    const OpenSystemConfig config = resolved(sim, smallSystem(2), pool);
    const auto trace = makeArrivalTrace(sim, config, pool);
    const auto a =
        runOpenSystem(sim, config, trace, OpenPolicy::Sos, pool);
    const auto b =
        runOpenSystem(sim, config, trace, OpenPolicy::Sos, pool);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_DOUBLE_EQ(a.meanResponseCycles, b.meanResponseCycles);
}

/** One comparison and its SOS decision trace. */
struct Compared
{
    ResponseComparison comparison;
    std::string trace;
};

void
expectSameResult(const OpenSystemResult &a, const OpenSystemResult &b,
                 const std::string &context)
{
    EXPECT_EQ(a.responseByArrival, b.responseByArrival) << context;
    EXPECT_EQ(a.completed, b.completed) << context;
    EXPECT_EQ(a.meanResponseCycles, b.meanResponseCycles) << context;
    EXPECT_EQ(a.meanJobsInSystem, b.meanJobsInSystem) << context;
    EXPECT_EQ(a.totalCycles, b.totalCycles) << context;
    EXPECT_EQ(a.sampleCycles, b.sampleCycles) << context;
    EXPECT_EQ(a.samplePhases, b.samplePhases) << context;
    EXPECT_EQ(a.resamplesOnJobChange, b.resamplesOnJobChange) << context;
    EXPECT_EQ(a.resamplesOnTimer, b.resamplesOnTimer) << context;
}

TEST(OpenSystem, ComparisonsNestedOnOnePoolMatchSerialCalls)
{
    // The Figure 5/6/8 shape: several comparisons run as tasks of one
    // batch, and each one's arrival calibration and sample-phase forks
    // are batches nested on the same pool. Every comparison must equal
    // a top-level call on a one-worker pool.
    const SimConfig sim = fast();
    std::vector<OpenSystemConfig> configs;
    for (int k = 0; k < 3; ++k) {
        OpenSystemConfig config = smallSystem(2 + k % 2);
        config.numJobs = 6;
        config.meanJobPaperCycles = 20000000;
        config.seed = 77 + static_cast<std::uint64_t>(k);
        // Dense arrivals, so every run's sample phases fork.
        config.meanInterarrivalPaper = config.meanJobPaperCycles / 4;
        configs.push_back(config);
    }
    const auto compare = [&](std::size_t i, ThreadPool &pool) {
        stats::EventTrace events;
        Compared compared;
        compared.comparison =
            compareResponseTimes(sim, configs[i], pool, &events);
        compared.trace = events.render();
        return compared;
    };

    ThreadPool serial(1);
    std::vector<Compared> expected;
    for (std::size_t i = 0; i < configs.size(); ++i)
        expected.push_back(compare(i, serial));
    for (const Compared &compared : expected) {
        EXPECT_GT(compared.comparison.sos.samplePhases, 0);
        EXPECT_FALSE(compared.trace.empty());
    }

    for (int workers : {1, 4}) {
        ThreadPool pool(workers);
        std::vector<Compared> nested(configs.size());
        pool.run(configs.size(), [&](std::size_t i) {
            nested[i] = compare(i, pool);
        });
        for (std::size_t i = 0; i < configs.size(); ++i) {
            const std::string context = "workers " +
                                        std::to_string(workers) +
                                        ", comparison " +
                                        std::to_string(i);
            const ResponseComparison &a = expected[i].comparison;
            const ResponseComparison &b = nested[i].comparison;
            expectSameResult(a.naive, b.naive, context + " naive");
            expectSameResult(a.sos, b.sos, context + " sos");
            EXPECT_EQ(a.jobsCompared, b.jobsCompared) << context;
            EXPECT_EQ(a.improvementPct, b.improvementPct) << context;
            EXPECT_EQ(expected[i].trace, nested[i].trace) << context;
        }
    }
}

} // namespace
} // namespace sos
