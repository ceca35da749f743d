/**
 * @file
 * Machine model tests: parameter validation at construction, the
 * 1-core machine's bit-for-bit equivalence with a hand-assembled
 * single core, per-core L2 contention attribution, and the
 * context-switch determinism contract (attach/detach mid-run replays
 * identically from a fresh machine).
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cpu/machine.hh"
#include "sched/job.hh"
#include "trace/workload_library.hh"

namespace sos {
namespace {

std::unique_ptr<Job>
makeJob(std::uint32_t id, const std::string &workload)
{
    return std::make_unique<Job>(
        id, WorkloadLibrary::instance().get(workload),
        0x900d5eedULL ^ id, 1, false);
}

ThreadBinding
bindingOf(Job &job, int thread = 0)
{
    ThreadBinding b;
    b.gen = &job.generator(thread);
    b.sync = job.syncDomain();
    b.syncIndex = thread;
    b.asid = job.asid();
    return b;
}

TEST(MachineParams, RejectsBadCoreCount)
{
    MachineParams params;
    params.numCores = 0;
    EXPECT_THROW(validateMachineParams(params), std::invalid_argument);
    params.numCores = MaxCores + 1;
    EXPECT_THROW(validateMachineParams(params), std::invalid_argument);
    params.numCores = MaxCores;
    EXPECT_NO_THROW(validateMachineParams(params));
}

TEST(MachineParams, RejectsBadCoreParamsAtConstruction)
{
    CoreParams core;
    core.numContexts = MaxContexts + 1;
    EXPECT_THROW(Machine(core, MemParams{}), std::invalid_argument);

    core = CoreParams{};
    core.fetchWidth = 0;
    EXPECT_THROW(Machine(core, MemParams{}), std::invalid_argument);

    core = CoreParams{};
    core.fpMulPipes = 9; // beyond the core's fpBusyUntil_ capacity
    EXPECT_THROW(Machine(core, MemParams{}), std::invalid_argument);
}

TEST(MachineParams, RejectsBadMemParamsAtConstruction)
{
    MemParams mem;
    mem.l1d.lineBytes = 0;
    EXPECT_THROW(Machine(CoreParams{}, mem), std::invalid_argument);

    mem = MemParams{};
    mem.l1d.sizeBytes = 1000; // not divisible into sets of lines
    EXPECT_THROW(Machine(CoreParams{}, mem), std::invalid_argument);
}

/** what() of the invalid_argument a callable throws. */
template <typename Fn>
std::string
thrownMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const std::invalid_argument &err) {
        return err.what();
    }
    return "";
}

TEST(MachineParams, ValidationNamesTheFieldAndValue)
{
    // The satellite contract: errors say which knob broke and what it
    // held, so a config-file typo is diagnosable from the message.
    CoreParams core;
    core.fetchWidth = -3;
    std::string what =
        thrownMessage([&] { validateCoreParams(core); });
    EXPECT_NE(what.find("fetchWidth"), std::string::npos) << what;
    EXPECT_NE(what.find("-3"), std::string::npos) << what;

    MemParams mem;
    mem.l2HitLatency = 0;
    what = thrownMessage([&] { validateMemParams(mem); });
    EXPECT_NE(what.find("l2HitLatency"), std::string::npos) << what;
    EXPECT_NE(what.find("got 0"), std::string::npos) << what;

    mem = MemParams{};
    mem.l1d.sizeBytes = 1000;
    what = thrownMessage([&] { validateMemParams(mem); });
    EXPECT_NE(what.find("l1d"), std::string::npos) << what;
    EXPECT_NE(what.find("1000"), std::string::npos) << what;
}

TEST(MachineParams, PerCoreValidationNamesTheCore)
{
    MachineParams params;
    params.numCores = 2;
    params.cores = {CoreParams{}, CoreParams{}};
    params.cores[1].fetchWidth = 0;
    params.coreMem = {MemParams{}, MemParams{}};
    const std::string what =
        thrownMessage([&] { validateMachineParams(params); });
    EXPECT_NE(what.find("core 1"), std::string::npos) << what;
    EXPECT_NE(what.find("fetchWidth"), std::string::npos) << what;

    // Sized wrong: one entry per core or none at all.
    params.cores = {CoreParams{}};
    EXPECT_THROW(validateMachineParams(params), std::invalid_argument);
}

TEST(MachineParams, CoreClassesPartitionByEquality)
{
    MachineParams params;
    params.numCores = 4;
    EXPECT_TRUE(params.homogeneous());
    EXPECT_EQ(params.coreClasses(), (std::vector<int>{0, 0, 0, 0}));

    params.cores.assign(4, CoreParams{});
    params.coreMem.assign(4, MemParams{});
    EXPECT_TRUE(params.homogeneous()) << "identical entries";

    params.cores[2].fetchWidth = 4;
    params.cores[3].fetchWidth = 4;
    EXPECT_FALSE(params.homogeneous());
    EXPECT_EQ(params.coreClasses(), (std::vector<int>{0, 0, 1, 1}));

    // A memory-only difference also splits the classes.
    params.cores[2].fetchWidth = params.cores[0].fetchWidth;
    params.cores[3].fetchWidth = params.cores[0].fetchWidth;
    params.coreMem[1].l1d.sizeBytes = 32 * 1024;
    EXPECT_EQ(params.coreClasses(), (std::vector<int>{0, 1, 0, 0}));
}

TEST(MachineParams, SmtCoreValidatesDirectly)
{
    // The satellite contract: constructing the core itself (not just
    // a Machine) throws instead of silently clamping.
    SharedL2 l2{MemParams{}, 1};
    CacheHierarchy view{MemParams{}, l2, 0};
    CoreParams bad;
    bad.numContexts = 0;
    EXPECT_THROW(SmtCore(bad, view), std::invalid_argument);
}

TEST(Machine, OneCoreMatchesHandAssembledCore)
{
    // Ownership moved, behaviour must not: a 1-core Machine and a
    // hand-wired SharedL2 + view + SmtCore see the same access
    // sequence and retire identical counters.
    PerfCounters viaMachine;
    {
        Machine machine(CoreParams{}, MemParams{});
        auto j1 = makeJob(1, "GCC");
        auto j2 = makeJob(2, "MG");
        machine.core(0).attachThread(0, bindingOf(*j1));
        machine.core(0).attachThread(1, bindingOf(*j2));
        machine.core(0).run(40000, viaMachine);
    }
    PerfCounters byHand;
    {
        SharedL2 l2{MemParams{}, 1};
        CacheHierarchy view{MemParams{}, l2, 0};
        SmtCore core{CoreParams{}, view};
        auto j1 = makeJob(1, "GCC");
        auto j2 = makeJob(2, "MG");
        core.attachThread(0, bindingOf(*j1));
        core.attachThread(1, bindingOf(*j2));
        core.run(40000, byHand);
    }
    EXPECT_EQ(viaMachine, byHand);
}

TEST(Machine, CoresSeeSeparatePrivateLevelsAndOneL2)
{
    Machine machine(CoreParams{}, MemParams{}, 2);
    ASSERT_EQ(machine.numCores(), 2);
    auto j1 = makeJob(1, "GCC");
    auto j2 = makeJob(2, "SWIM");
    machine.core(0).attachThread(0, bindingOf(*j1));
    machine.core(1).attachThread(0, bindingOf(*j2));
    PerfCounters pc0, pc1;
    machine.core(0).run(30000, pc0);
    machine.core(1).run(30000, pc1);
    EXPECT_GT(pc0.retired, 0u);
    EXPECT_GT(pc1.retired, 0u);

    // Contention attribution: the per-core counters partition the
    // shared cache's demand traffic.
    const SharedL2 &l2 = machine.sharedL2();
    const auto &c0 = l2.coreCounters(0);
    const auto &c1 = l2.coreCounters(1);
    EXPECT_GT(c0.accesses, 0u);
    EXPECT_GT(c1.accesses, 0u);
    EXPECT_EQ(c0.hits + c1.hits, l2.cache().hits());
    EXPECT_EQ(c0.misses + c1.misses, l2.cache().misses());

    // The private levels really are private: core 1 never touched
    // core 0's L1D.
    EXPECT_EQ(machine.memory(0).l1d().hits() +
                  machine.memory(0).l1d().misses(),
              pc0.l1dHits + pc0.l1dMisses);
}

TEST(Machine, ContextSwitchReplaysBitIdentically)
{
    // The determinism regression of the satellite list: detach and
    // attach mid-run (squashing in-flight work), then replay the same
    // sequence on a fresh machine and expect bit-identical counters.
    const auto episode = [](PerfCounters &out) {
        Machine machine(CoreParams{}, MemParams{});
        SmtCore &core = machine.core(0);
        auto j1 = makeJob(1, "FP");
        auto j2 = makeJob(2, "GO");
        auto j3 = makeJob(3, "IS");
        core.attachThread(0, bindingOf(*j1));
        core.attachThread(1, bindingOf(*j2));
        core.run(7000, out); // mid-flight: queues are full here
        core.detachThread(1); // context-switch squash
        core.run(3000, out);
        core.attachThread(1, bindingOf(*j3));
        core.run(7000, out);
        core.detachThread(0);
        core.detachThread(1);
        core.run(1000, out);
    };
    PerfCounters first, second;
    episode(first);
    episode(second);
    EXPECT_GT(first.retired, 0u);
    EXPECT_EQ(first, second);
}

TEST(Machine, ExplicitPerCoreVectorsStayBitIdentical)
{
    // A machine built from explicit-but-identical per-core vectors
    // must behave bit-for-bit like the legacy homogeneous form: the
    // refactor may not perturb pinned goldens.
    const auto episode = [](Machine &machine, PerfCounters &out) {
        auto j1 = makeJob(1, "GCC");
        auto j2 = makeJob(2, "MG");
        machine.core(0).attachThread(0, bindingOf(*j1));
        machine.core(1).attachThread(0, bindingOf(*j2));
        machine.core(0).run(30000, out);
        machine.core(1).run(30000, out);
    };
    PerfCounters legacy, explicit_vectors;
    {
        Machine machine(CoreParams{}, MemParams{}, 2);
        episode(machine, legacy);
    }
    {
        MachineParams params;
        params.numCores = 2;
        params.cores.assign(2, CoreParams{});
        params.coreMem.assign(2, MemParams{});
        Machine machine(params);
        episode(machine, explicit_vectors);
    }
    EXPECT_GT(legacy.retired, 0u);
    EXPECT_EQ(legacy, explicit_vectors);
}

TEST(Machine, HeterogeneousCoresDifferInThroughput)
{
    // The per-core vectors really reach the cores: a 2-core machine
    // with one narrowed core partitions into two classes, and the
    // narrow core retires strictly less on a cold solo run. The
    // throughput comparison uses two separate machines — on one
    // machine the second core would inherit an L2 warmed by the
    // first core's identical access stream.
    CoreParams narrow;
    narrow.fetchWidth = 2;
    narrow.dispatchWidth = 2;
    narrow.commitWidth = 2;
    narrow.numIntUnits = 1;
    narrow.numLsPorts = 1;

    MachineParams hetero;
    hetero.numCores = 2;
    hetero.cores = {CoreParams{}, narrow};
    hetero.coreMem.assign(2, MemParams{});
    EXPECT_EQ(Machine(hetero).params().coreClasses(),
              (std::vector<int>{0, 1}));

    const auto soloRun = [](const CoreParams &core) {
        MachineParams params;
        params.numCores = 1;
        params.cores.assign(1, core);
        params.coreMem.assign(1, MemParams{});
        Machine machine(params);
        auto job = makeJob(1, "GCC");
        machine.core(0).attachThread(0, bindingOf(*job));
        PerfCounters pc;
        machine.core(0).run(30000, pc);
        return pc;
    };
    const PerfCounters big = soloRun(CoreParams{});
    const PerfCounters little = soloRun(narrow);
    EXPECT_GT(big.retired, 0u);
    EXPECT_LT(little.retired, big.retired);
}

} // namespace
} // namespace sos
