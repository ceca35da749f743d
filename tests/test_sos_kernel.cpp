/**
 * @file
 * Unit tests for the event-driven SOS kernel: the deterministic event
 * queue, the engine backend the open system schedules onto (one SMT
 * core and a CMP), and the open run's worker-count invariance (the
 * SOS_JOBS acceptance check, run in-process via config.jobs).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "sim/open_system.hh"
#include "sos/event.hh"
#include "sos/kernel.hh"
#include "sos/open_backend.hh"
#include "stats/trace.hh"

namespace sos {
namespace {

SimConfig
fast()
{
    return makeFastConfig();
}

/**
 * A pool that outgrows the machine quickly (arrivals every quarter
 * job), so sample phases actually run. The explicit interarrival also
 * skips the capacity probe, keeping the test fast.
 */
OpenSystemConfig
busySystem(int level, int cores = 1)
{
    OpenSystemConfig config;
    config.level = level;
    config.numCores = cores;
    config.numJobs = 8;
    config.meanJobPaperCycles = 40000000;
    config.meanInterarrivalPaper = config.meanJobPaperCycles / 4;
    config.seed = 91;
    return config;
}

TEST(EventQueue, PopsInCycleOrder)
{
    EventQueue queue;
    queue.push(EventKind::JobArrival, 300, 2);
    queue.push(EventKind::JobArrival, 100, 0);
    queue.push(EventKind::JobArrival, 200, 1);
    EXPECT_EQ(queue.size(), 3u);
    EXPECT_EQ(queue.pop().index, 0);
    EXPECT_EQ(queue.pop().index, 1);
    EXPECT_EQ(queue.pop().index, 2);
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, SameCyclePopsInPushOrder)
{
    // The (cycle, seq) order is the determinism contract: two events
    // scheduled for the same cycle pop in scheduling order, never in
    // heap-internal order.
    EventQueue queue;
    queue.push(EventKind::PhaseComplete, 500, 10);
    queue.push(EventKind::JobArrival, 500, 11);
    queue.push(EventKind::BackoffTimer, 500, 12);
    queue.push(EventKind::JobDeparture, 400, 13);
    EXPECT_EQ(queue.pop().kind, EventKind::JobDeparture);
    EXPECT_EQ(queue.pop().kind, EventKind::PhaseComplete);
    EXPECT_EQ(queue.pop().kind, EventKind::JobArrival);
    EXPECT_EQ(queue.pop().kind, EventKind::BackoffTimer);
}

TEST(EventQueue, SequenceNumbersAreMonotonic)
{
    EventQueue queue;
    const std::uint64_t a = queue.push(EventKind::JobArrival, 7);
    const std::uint64_t b = queue.push(EventKind::JobArrival, 3);
    EXPECT_LT(a, b);
    EXPECT_EQ(queue.top().seq, b); // earliest cycle, later push
}

TEST(EventQueue, TimerGenerationsSurviveTheHeap)
{
    EventQueue queue;
    queue.push(EventKind::BackoffTimer, 900, -1, 4);
    queue.push(EventKind::BackoffTimer, 800, -1, 5);
    EXPECT_EQ(queue.pop().generation, 5u);
    EXPECT_EQ(queue.pop().generation, 4u);
}

TEST(OpenBackend, SpreadFillsCoresInIndexOrder)
{
    const SimConfig sim = fast();
    EngineBackend backend(sim.machineFor(2, 2), sim.timesliceCycles(),
                          sim.sample);
    EXPECT_EQ(backend.name(), "machine");
    EXPECT_EQ(backend.capacity(), 4);
    const auto groups = backend.spread({0, 1, 2});
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0], (std::vector<int>{0, 1}));
    EXPECT_EQ(groups[1], (std::vector<int>{2}));
}

TEST(OpenBackend, TrivialCandidateCoversTheWholePool)
{
    const SimConfig sim = fast();
    EngineBackend backend(sim.machineFor(3, 1), sim.timesliceCycles(),
                          sim.sample);
    EXPECT_EQ(backend.name(), "smt-core");
    const OpenCandidate candidate = backend.trivialCandidate(2);
    ASSERT_EQ(candidate.groups.size(), 1u);
    EXPECT_EQ(candidate.groups[0], (std::vector<int>{0, 1}));
    EXPECT_FALSE(candidate.key.empty());
    // The schedule wraps, so any period position yields a tuple.
    for (std::uint64_t t = 0; t < 4; ++t)
        EXPECT_FALSE(candidate.tuplesAt(t)[0].empty());
}

TEST(OpenBackend, DrawCandidatesIsDeterministicAndDistinct)
{
    const SimConfig sim = fast();
    EngineBackend backend(sim.machineFor(2, 1), sim.timesliceCycles(),
                          sim.sample);
    Rng rng_a(1234);
    Rng rng_b(1234);
    const auto a = backend.drawCandidates(5, 6, rng_a);
    const auto b = backend.drawCandidates(5, 6, rng_b);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    std::set<std::string> keys;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].key, b[i].key);
        EXPECT_EQ(a[i].label, b[i].label);
        keys.insert(a[i].key);
    }
    EXPECT_EQ(keys.size(), a.size()); // deduplicated by key
    EXPECT_GT(backend.windowSlices(5), 0u);
}

TEST(OpenBackend, MachineCandidatesAssignEveryJobToOneCore)
{
    const SimConfig sim = fast();
    EngineBackend backend(sim.machineFor(2, 2), sim.timesliceCycles(),
                          sim.sample);
    Rng rng(99);
    const auto candidates = backend.drawCandidates(6, 5, rng);
    ASSERT_FALSE(candidates.empty());
    for (const OpenCandidate &candidate : candidates) {
        ASSERT_EQ(candidate.groups.size(), 2u);
        std::set<int> seen;
        for (const auto &group : candidate.groups)
            seen.insert(group.begin(), group.end());
        EXPECT_EQ(seen.size(), 6u); // a partition of the pool
        EXPECT_EQ(*seen.begin(), 0);
        EXPECT_EQ(*seen.rbegin(), 5);
    }
}

TEST(SosKernel, OpenRunOnCmpBackendCompletesAndSamples)
{
    const SimConfig sim = fast();
    const OpenSystemConfig config = busySystem(2, 2);
    ThreadPool pool(resolveJobs(sim.jobs));
    const auto trace = makeArrivalTrace(sim, config, pool);
    const auto result =
        runOpenSystem(sim, config, trace, OpenPolicy::Sos, pool);
    EXPECT_EQ(result.completed, config.numJobs);
    EXPECT_GT(result.samplePhases, 0);
    EXPECT_GT(result.sampleCycles, 0u);
    for (std::uint64_t response : result.responseByArrival)
        EXPECT_GT(response, 0u);
}

TEST(SosKernel, OpenRunIsInvariantAcrossWorkerCounts)
{
    // The fork-profiled sample phases fan out on the pool the run is
    // given; results and the decision trace must be bit-identical
    // whether one worker or four profile the candidates.
    const OpenSystemConfig config = busySystem(3);
    const SimConfig sim = fast();
    ThreadPool serial(1);
    ThreadPool parallel(4);
    const auto trace = makeArrivalTrace(sim, config, serial);

    stats::EventTrace events_serial;
    stats::EventTrace events_parallel;
    const auto a = runOpenSystem(sim, config, trace, OpenPolicy::Sos,
                                 serial, &events_serial);
    const auto b = runOpenSystem(sim, config, trace, OpenPolicy::Sos,
                                 parallel, &events_parallel);

    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.samplePhases, b.samplePhases);
    EXPECT_EQ(a.sampleCycles, b.sampleCycles);
    ASSERT_EQ(a.responseByArrival.size(), b.responseByArrival.size());
    for (std::size_t i = 0; i < a.responseByArrival.size(); ++i)
        EXPECT_EQ(a.responseByArrival[i], b.responseByArrival[i]);
    EXPECT_EQ(events_serial.render(), events_parallel.render());
    EXPECT_GT(a.samplePhases, 0); // the check must exercise sampling
}

TEST(SosKernel, FreshKernelStartsIdle)
{
    SosKernel kernel;
    EXPECT_EQ(kernel.phase(), SosKernel::Phase::Idle);
    EXPECT_EQ(kernel.samplePhaseCycles(), 0u);
    EXPECT_TRUE(kernel.profiles().empty());
    EXPECT_TRUE(kernel.symbiosWs().empty());
}

} // namespace
} // namespace sos
