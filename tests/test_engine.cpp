/** @file Unit tests for the timeslice engine (MachineEngine). */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cpu/machine.hh"
#include "sched/jobmix.hh"
#include "sched/schedule.hh"
#include "sim/machine_engine.hh"
#include "sim/params_io.hh"

namespace sos {
namespace {

/** One SMT-2 core driven by a MachineEngine with a 10000-cycle quantum. */
class EngineTest : public ::testing::Test
{
  protected:
    EngineTest()
        : engine_(homogeneousMachine(params(), MemParams{}), 10000),
          core_(engine_.machine().core(0))
    {
    }

    static CoreParams
    params()
    {
        CoreParams p;
        p.numContexts = 2;
        return p;
    }

    /** Run one timeslice on the only core. */
    MachineEngine::SliceResult
    run(const std::vector<ThreadRef> &units)
    {
        return engine_.runSlice({units});
    }

    MachineEngine engine_;
    const SmtCore &core_;
};

TEST_F(EngineTest, RunTimesliceCreditsJobs)
{
    JobMix mix(1);
    mix.addJob("EP");
    mix.addJob("FP");
    const auto result = run({mix.unit(0), mix.unit(1)});
    EXPECT_EQ(result.machine.cycles, 10000u);
    ASSERT_EQ(result.perCore.size(), 1u);
    EXPECT_EQ(result.perCore[0].cycles, 10000u);
    ASSERT_EQ(result.unitRetired.size(), 1u);
    ASSERT_EQ(result.unitRetired[0].size(), 2u);
    EXPECT_GT(result.unitRetired[0][0], 0u);
    EXPECT_GT(result.unitRetired[0][1], 0u);
    EXPECT_EQ(mix.job(0).retired(), result.unitRetired[0][0]);
    EXPECT_EQ(mix.job(1).retired(), result.unitRetired[0][1]);
    EXPECT_EQ(mix.job(0).residentCycles(), 10000u);
}

TEST_F(EngineTest, ResidentUnitsKeepTheirSlots)
{
    // Partial swap: the staying unit must not be detached (its
    // pipeline state carries over -- the warmstart effect), and the
    // entering unit takes the context the leaving one freed.
    JobMix mix(2);
    mix.addJob("EP");
    mix.addJob("FP");
    mix.addJob("MG");

    run({mix.unit(1), mix.unit(0)});
    const std::uint64_t before = core_.now();
    run({mix.unit(0), mix.unit(2)});
    EXPECT_EQ(core_.now(), before + 10000);

    const auto residents = engine_.residents();
    ASSERT_EQ(residents.size(), 2u);
    EXPECT_EQ(residents[0].slot, 0);
    EXPECT_EQ(residents[0].unit, mix.unit(2));
    EXPECT_EQ(residents[1].slot, 1);
    EXPECT_EQ(residents[1].unit, mix.unit(0));
    EXPECT_GT(mix.job(0).retired(), 0u);
    EXPECT_GT(mix.job(2).retired(), 0u);
}

TEST_F(EngineTest, RejectsDuplicateUnits)
{
    JobMix mix(3);
    mix.addJob("EP");
    EXPECT_DEATH(run({mix.unit(0), mix.unit(0)}), "two contexts");
}

TEST_F(EngineTest, RejectsOversizedRunningSet)
{
    JobMix mix(4);
    mix.addJob("EP");
    mix.addJob("FP");
    mix.addJob("MG");
    EXPECT_DEATH(run({mix.unit(0), mix.unit(1), mix.unit(2)}),
                 "more units");
}

TEST_F(EngineTest, EmptySliceFreesSlots)
{
    // A core given no units runs its quantum with every resident
    // evicted.
    JobMix mix(5);
    mix.addJob("EP");
    mix.addJob("FP");
    run({mix.unit(0), mix.unit(1)});
    run({});
    EXPECT_EQ(core_.inFlightCount(), 0);
    EXPECT_FALSE(core_.slotActive(0));
    EXPECT_FALSE(core_.slotActive(1));
    EXPECT_TRUE(engine_.residents().empty());
}

TEST_F(EngineTest, EvictJobIsSelective)
{
    JobMix mix(6);
    mix.addJob("EP");
    mix.addJob("FP");
    run({mix.unit(0), mix.unit(1)});
    engine_.evictJob(mix.unit(0).job);
    EXPECT_TRUE(core_.slotActive(0) != core_.slotActive(1));
    const auto residents = engine_.residents();
    ASSERT_EQ(residents.size(), 1u);
    EXPECT_EQ(residents[0].unit, mix.unit(1));
}

/** Run @p schedule on a fresh 1-core MachineEngine like the fixture's. */
MachineEngine::MachineRunResult
runOneCore(JobMix &mix, const Schedule &schedule,
           std::uint64_t timeslices)
{
    CoreParams params;
    params.numContexts = 2;
    MachineEngine engine(homogeneousMachine(params, MemParams{}), 10000);
    return engine
        .runSchedule(mix, MachineSchedule(schedule), {timeslices})
        .front();
}

TEST_F(EngineTest, RunScheduleIsFairAcrossJobs)
{
    JobMix mix(7);
    for (const char *name : {"EP", "EP", "EP", "EP"})
        mix.addJob(name);
    const Schedule schedule =
        Schedule::fromPartition({{0, 1}, {2, 3}});
    const auto result = runOneCore(mix, schedule, 20);
    ASSERT_EQ(result.jobRetired.size(), 4u);
    // Identical jobs scheduled symmetrically retire similar counts.
    for (int j = 1; j < 4; ++j) {
        const double a = static_cast<double>(result.jobRetired[0]);
        const double b = static_cast<double>(
            result.jobRetired[static_cast<std::size_t>(j)]);
        EXPECT_LT(std::abs(a - b) / std::max(a, b), 0.3);
    }
    EXPECT_EQ(result.cycles, 20u * 10000u);
    EXPECT_EQ(result.sliceIpc.size(), 20u);
}

TEST_F(EngineTest, RunScheduleAggregatesCounters)
{
    JobMix mix(8);
    mix.addJob("MG");
    mix.addJob("GCC");
    mix.addJob("FP");
    mix.addJob("GO");
    const Schedule schedule =
        Schedule::fromPartition({{0, 1}, {2, 3}});
    const auto result = runOneCore(mix, schedule, 10);
    EXPECT_EQ(result.total.cycles, 100000u);
    std::uint64_t sum = 0;
    for (std::uint64_t r : result.jobRetired)
        sum += r;
    EXPECT_EQ(sum, result.total.retired);
}

/** A 2-core machine of SMT-2 cores. */
MachineParams
twoCores()
{
    MachineParams params;
    params.numCores = 2;
    params.core.numContexts = 2;
    return params;
}

/** The residents of core @p k. */
std::vector<MachineEngine::Resident>
residentsOf(const MachineEngine &engine, int k)
{
    std::vector<MachineEngine::Resident> out = engine.residents();
    std::erase_if(out, [k](const MachineEngine::Resident &resident) {
        return resident.core != k;
    });
    return out;
}

TEST(MachineEngineSlice, RunsEveryCoreForOneQuantum)
{
    // One open-system step on a 2-core machine: machine counters sum
    // the cores' but span one quantum, and a core given no units (here
    // core 1, past the end of the list) idles with its residents
    // evicted.
    MachineEngine engine(twoCores(), 10000);
    JobMix mix(11);
    mix.addJob("EP");
    mix.addJob("FP");
    mix.addJob("MG");

    const MachineEngine::SliceResult both =
        engine.runSlice({{mix.unit(0)}, {mix.unit(1), mix.unit(2)}});
    ASSERT_EQ(both.perCore.size(), 2u);
    EXPECT_EQ(both.machine.cycles, 10000u);
    EXPECT_EQ(both.machine.retired,
              both.perCore[0].retired + both.perCore[1].retired);
    EXPECT_GT(both.perCore[1].retired, 0u);
    EXPECT_EQ(residentsOf(engine, 1).size(), 2u);

    const MachineEngine::SliceResult first =
        engine.runSlice({{mix.unit(0)}});
    EXPECT_EQ(first.machine.cycles, 10000u);
    EXPECT_EQ(first.perCore[1].retired, 0u);
    EXPECT_TRUE(first.unitRetired[1].empty());
    EXPECT_TRUE(residentsOf(engine, 1).empty());

    // evictJob detaches a job from whichever core holds it.
    engine.evictJob(&mix.job(0));
    EXPECT_TRUE(residentsOf(engine, 0).empty());
}

TEST_F(EngineTest, ParallelJobThreadsCanShareTimeslice)
{
    JobMix mix(10);
    mix.addParallelJob("ARRAY", 2);
    const auto result = run({mix.unit(0), mix.unit(1)});
    EXPECT_GT(result.machine.retired, 1000u);
    // Residency is credited once per job, not per thread.
    EXPECT_EQ(mix.job(0).residentCycles(), 10000u);
}

/** Per-core (pool index, thread) picks of one timeslice. */
using Pick = std::vector<std::vector<std::pair<int, int>>>;

/** The units @p pick names over the pool @p jobs. */
std::vector<std::vector<ThreadRef>>
unitsOf(const std::vector<Job *> &jobs, const Pick &pick)
{
    std::vector<std::vector<ThreadRef>> units(pick.size());
    for (std::size_t k = 0; k < pick.size(); ++k)
        for (const auto &[index, thread] : pick[k])
            units[k].push_back(
                ThreadRef{jobs.at(static_cast<std::size_t>(index)), thread});
    return units;
}

/** A parallel ARRAY job and four single-threaded ones. */
JobMix
poolMix(std::uint64_t seed)
{
    JobMix mix(seed);
    mix.addParallelJob("ARRAY", 2);
    for (const char *name : {"EP", "FP", "MG", "GCC"})
        mix.addJob(name);
    return mix;
}

/** The jobs of @p mix, in pool order. */
std::vector<Job *>
poolOf(JobMix &mix)
{
    std::vector<Job *> pool;
    for (int j = 0; j < mix.numJobs(); ++j)
        pool.push_back(&mix.job(j));
    return pool;
}

/**
 * The open system's fork: copies of the pool's jobs, and the engine
 * forked onto them with each job mapped by its pool position.
 */
struct PoolFork
{
    PoolFork(const MachineEngine &from, const std::vector<Job *> &from_pool)
        : pool(copyJobs(from_pool)),
          engine(from, [&](const Job &job) {
              const auto position = static_cast<std::size_t>(
                  std::find(from_pool.begin(), from_pool.end(), &job) -
                  from_pool.begin());
              return pool.at(position);
          })
    {
    }

    std::vector<Job *>
    copyJobs(const std::vector<Job *> &from_pool)
    {
        std::vector<Job *> copies;
        for (const Job *job : from_pool) {
            jobs.push_back(std::make_unique<Job>(*job));
            copies.push_back(jobs.back().get());
        }
        return copies;
    }

    std::vector<std::unique_ptr<Job>> jobs;
    std::vector<Job *> pool;
    MachineEngine engine;
};

/**
 * Run @p window on @p reference and on @p fork, expecting the fork to
 * measure exactly what the reference does: every SliceResult field,
 * then each job's retired instructions and resident cycles.
 */
void
expectSameWindow(MachineEngine &reference,
                 const std::vector<Job *> &reference_pool,
                 PoolFork &fork, const std::vector<Pick> &window)
{
    for (const Pick &pick : window) {
        const MachineEngine::SliceResult expected =
            reference.runSlice(unitsOf(reference_pool, pick));
        const MachineEngine::SliceResult forked =
            fork.engine.runSlice(unitsOf(fork.pool, pick));
        EXPECT_EQ(forked.machine, expected.machine);
        EXPECT_EQ(forked.perCore, expected.perCore);
        EXPECT_EQ(forked.unitRetired, expected.unitRetired);
        EXPECT_EQ(forked.sampling, expected.sampling);
        EXPECT_GT(forked.machine.retired, 0u);
    }
    for (std::size_t j = 0; j < reference_pool.size(); ++j) {
        EXPECT_EQ(fork.pool[j]->retired(), reference_pool[j]->retired())
            << j;
        EXPECT_EQ(fork.pool[j]->residentCycles(),
                  reference_pool[j]->residentCycles())
            << j;
    }
}

/**
 * A window with staying, leaving and entering units, the parallel
 * job's threads split across the cores, and a core left idle.
 */
const std::vector<Pick> kWindow = {
    {{{0, 1}, {3, 0}}, {{1, 0}, {2, 0}}},
    {{{3, 0}, {0, 0}}, {{2, 0}, {4, 0}}},
    {{{0, 0}, {0, 1}}, {{4, 0}}},
    {{{4, 0}, {1, 0}}},
};

/**
 * The open system's fork: the fork's window equals the live engine
 * continuing, field for field.
 */
void
expectForkContinuesLiveRun(const SampleWindows &sample)
{
    MachineEngine live(twoCores(), 10000, sample);
    JobMix mix = poolMix(12);
    const std::vector<Job *> pool = poolOf(mix);

    // Warm up, with a partial swap so core 0's residents are out of
    // input order: ARRAY thread 1 stays in slot 1, MG takes slot 0.
    live.runSlice(unitsOf(pool, {{{0, 0}, {0, 1}}, {{1, 0}, {2, 0}}}));
    live.runSlice(unitsOf(pool, {{{0, 1}, {3, 0}}, {{2, 0}, {1, 0}}}));
    const auto residents = live.residents();
    ASSERT_EQ(residents.size(), 4u);
    EXPECT_EQ(residents[0].unit, (ThreadRef{pool[3], 0}));
    EXPECT_EQ(residents[1].unit, (ThreadRef{pool[0], 1}));

    PoolFork fork(live, pool);
    expectSameWindow(live, pool, fork, kWindow);
}

TEST(MachineEngineFork, AdoptedResidentsContinueTheLiveRun)
{
    expectForkContinuesLiveRun(SampleWindows{});
}

TEST(MachineEngineFork, AdoptedResidentsContinueTheLiveSampledRun)
{
    expectForkContinuesLiveRun(parseSampleWindows("5000:1000:2000"));
}

/**
 * twoCores() made heterogeneous: core 1 has half the fetch width, half
 * the ROB and half the L1D of core 0.
 */
MachineParams
heteroCores()
{
    MachineParams params = twoCores();
    CoreParams little = params.core;
    little.fetchWidth /= 2;
    little.robSize /= 2;
    MemParams little_mem = params.mem;
    little_mem.l1d.sizeBytes /= 2;
    params.cores = {params.core, little};
    params.coreMem = {params.mem, little_mem};
    return params;
}

/**
 * A fork of an adopted fork (the open system's live engine after
 * adoptFork is exactly such a fork) continues like the fork it was
 * taken from, on a machine whose cores differ.
 */
void
expectForkOfForkContinues(const SampleWindows &sample)
{
    MachineEngine live(heteroCores(), 10000, sample);
    ASSERT_FALSE(live.machine().params().homogeneous());
    JobMix mix = poolMix(13);
    const std::vector<Job *> pool = poolOf(mix);

    // Warm up with ARRAY's threads split across the cores, then swap
    // partially: core 0 keeps EP in slot 1 while MG takes slot 0, and
    // core 1 keeps ARRAY thread 1 in slot 0 while GCC takes slot 1.
    live.runSlice(unitsOf(pool, {{{0, 0}, {1, 0}}, {{0, 1}, {2, 0}}}));
    live.runSlice(unitsOf(pool, {{{3, 0}, {1, 0}}, {{0, 1}, {4, 0}}}));
    const auto residents = live.residents();
    ASSERT_EQ(residents.size(), 4u);
    EXPECT_EQ(residents[0].unit, (ThreadRef{pool[3], 0}));
    EXPECT_EQ(residents[1].unit, (ThreadRef{pool[1], 0}));
    EXPECT_EQ(residents[2].unit, (ThreadRef{pool[0], 1}));
    EXPECT_EQ(residents[3].unit, (ThreadRef{pool[4], 0}));

    PoolFork a(live, pool);
    for (const Pick &pick : {Pick{{{1, 0}, {3, 0}}, {{0, 1}, {2, 0}}},
                             Pick{{{0, 0}, {3, 0}}, {{0, 1}, {4, 0}}}})
        a.engine.runSlice(unitsOf(a.pool, pick));

    PoolFork b(a.engine, a.pool);
    expectSameWindow(a.engine, a.pool, b, kWindow);
}

TEST(MachineEngineFork, ForkOfAForkContinuesOnAHeterogeneousMachine)
{
    expectForkOfForkContinues(SampleWindows{});
}

TEST(MachineEngineFork, ForkOfAForkContinuesOnAHeterogeneousSampledMachine)
{
    expectForkOfForkContinues(parseSampleWindows("5000:1000:2000"));
}

} // namespace
} // namespace sos
