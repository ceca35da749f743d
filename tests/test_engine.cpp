/** @file Unit tests for the timeslice engine. */

#include <gtest/gtest.h>

#include "cpu/machine.hh"
#include "sched/jobmix.hh"
#include "sched/schedule.hh"
#include "sim/machine_engine.hh"
#include "sim/timeslice_engine.hh"

namespace sos {
namespace {

class EngineTest : public ::testing::Test
{
  protected:
    EngineTest()
        : machine_(params(), MemParams{}), core_(machine_.core(0)),
          engine_(core_, 10000)
    {
    }

    static CoreParams
    params()
    {
        CoreParams p;
        p.numContexts = 2;
        return p;
    }

    Machine machine_;
    SmtCore &core_;
    TimesliceEngine engine_;
};

TEST_F(EngineTest, RunTimesliceCreditsJobs)
{
    JobMix mix(1);
    mix.addJob("EP");
    mix.addJob("FP");
    const auto result =
        engine_.runTimeslice({mix.unit(0), mix.unit(1)});
    EXPECT_EQ(result.counters.cycles, 10000u);
    ASSERT_EQ(result.unitRetired.size(), 2u);
    EXPECT_GT(result.unitRetired[0], 0u);
    EXPECT_GT(result.unitRetired[1], 0u);
    EXPECT_EQ(mix.job(0).retired(), result.unitRetired[0]);
    EXPECT_EQ(mix.job(1).retired(), result.unitRetired[1]);
    EXPECT_EQ(mix.job(0).residentCycles(), 10000u);
}

TEST_F(EngineTest, ResidentUnitsKeepTheirSlots)
{
    // Partial swap: the staying unit must not be detached (its
    // pipeline state carries over -- the warmstart effect).
    JobMix mix(2);
    mix.addJob("EP");
    mix.addJob("FP");
    mix.addJob("MG");

    engine_.runTimeslice({mix.unit(0), mix.unit(1)});
    const std::uint64_t before = core_.now();
    const int inflight_before = core_.inFlightCount();
    engine_.runTimeslice({mix.unit(0), mix.unit(2)});
    EXPECT_EQ(core_.now(), before + 10000);
    // If unit 0 had been detached its in-flight work would restart
    // from zero with unit 2's too; staying resident keeps the pipe
    // at least partially full across the boundary.
    (void)inflight_before;
    EXPECT_GT(mix.job(0).retired(), 0u);
    EXPECT_GT(mix.job(2).retired(), 0u);
}

TEST_F(EngineTest, RejectsDuplicateUnits)
{
    JobMix mix(3);
    mix.addJob("EP");
    EXPECT_DEATH(engine_.runTimeslice({mix.unit(0), mix.unit(0)}),
                 "two contexts");
}

TEST_F(EngineTest, RejectsOversizedRunningSet)
{
    JobMix mix(4);
    mix.addJob("EP");
    mix.addJob("FP");
    mix.addJob("MG");
    EXPECT_DEATH(
        engine_.runTimeslice({mix.unit(0), mix.unit(1), mix.unit(2)}),
        "more units");
}

TEST_F(EngineTest, EvictAllFreesSlots)
{
    JobMix mix(5);
    mix.addJob("EP");
    mix.addJob("FP");
    engine_.runTimeslice({mix.unit(0), mix.unit(1)});
    engine_.evictAll();
    EXPECT_EQ(core_.inFlightCount(), 0);
    EXPECT_FALSE(core_.slotActive(0));
    EXPECT_FALSE(core_.slotActive(1));
}

TEST_F(EngineTest, EvictJobIsSelective)
{
    JobMix mix(6);
    mix.addJob("EP");
    mix.addJob("FP");
    engine_.runTimeslice({mix.unit(0), mix.unit(1)});
    engine_.evictJob(mix.unit(0).job);
    EXPECT_TRUE(core_.slotActive(0) != core_.slotActive(1));
}

/** Run @p schedule on a fresh 1-core MachineEngine like the fixture's. */
MachineEngine::MachineRunResult
runOneCore(JobMix &mix, const Schedule &schedule,
           std::uint64_t timeslices)
{
    CoreParams params;
    params.numContexts = 2;
    Machine machine(params, MemParams{});
    MachineEngine engine(machine, 10000);
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

TEST(MachineEngineSlice, RunsEveryCoreForOneQuantum)
{
    // One open-system step on a 2-core machine: machine counters sum
    // the cores' but span one quantum, and a core given no units (here
    // core 1, past the end of the list) idles with its residents
    // evicted.
    CoreParams params;
    params.numContexts = 2;
    MachineParams machine_params;
    machine_params.numCores = 2;
    machine_params.core = params;
    Machine machine(machine_params);
    MachineEngine engine(machine, 10000);
    JobMix mix(11);
    mix.addJob("EP");
    mix.addJob("FP");
    mix.addJob("MG");

    const MachineEngine::SliceResult both =
        engine.runSlice({{mix.unit(0)}, {mix.unit(1), mix.unit(2)}});
    ASSERT_EQ(both.cores.size(), 2u);
    EXPECT_EQ(both.machine.cycles, 10000u);
    EXPECT_EQ(both.machine.retired, both.cores[0].counters.retired +
                                        both.cores[1].counters.retired);
    EXPECT_GT(both.cores[1].counters.retired, 0u);
    EXPECT_EQ(engine.coreEngine(1).residentUnits().size(), 2u);

    const MachineEngine::SliceResult first =
        engine.runSlice({{mix.unit(0)}});
    EXPECT_EQ(first.machine.cycles, 10000u);
    EXPECT_EQ(first.cores[1].counters.retired, 0u);
    EXPECT_TRUE(engine.coreEngine(1).residentUnits().empty());

    // evictJob detaches a job from whichever core holds it.
    engine.evictJob(&mix.job(0));
    EXPECT_TRUE(engine.coreEngine(0).residentUnits().empty());
}

TEST_F(EngineTest, SetTimesliceTakesEffect)
{
    JobMix mix(9);
    mix.addJob("EP");
    engine_.setTimesliceCycles(5000);
    const auto result = engine_.runTimeslice({mix.unit(0)});
    EXPECT_EQ(result.counters.cycles, 5000u);
}

TEST_F(EngineTest, ParallelJobThreadsCanShareTimeslice)
{
    JobMix mix(10);
    mix.addParallelJob("ARRAY", 2);
    const auto result =
        engine_.runTimeslice({mix.unit(0), mix.unit(1)});
    EXPECT_GT(result.counters.retired, 1000u);
    // Residency is credited once per job, not per thread.
    EXPECT_EQ(mix.job(0).residentCycles(), 10000u);
}

} // namespace
} // namespace sos
