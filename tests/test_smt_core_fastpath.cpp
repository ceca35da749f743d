/**
 * @file
 * Hot-path rewrite pins for the SMT core (DESIGN.md section 9).
 *
 * The struct-of-arrays thread table, ring-buffer fetch/ROB queues,
 * issue-queue wake filter and batched PerfCounters flush are pure
 * layout/execution-strategy changes: every counter and every manifest
 * byte must match the pre-rewrite core.  Three families of pins:
 *
 *  - counter goldens: a fixed multi-thread scenario (including a
 *    detach/attach in the middle of the measured interval, which
 *    exercises the thread-table rebuild) rendered field-by-field and
 *    compared against tests/golden/fastpath_counters.txt, generated
 *    from the pre-rewrite core (SOS_REGEN_GOLDEN=1 to regenerate --
 *    only ever against a known-good revision);
 *
 *  - flush-boundary identity: one run(N) must equal the sum of any
 *    partition of N across run() calls, since the batched-delta flush
 *    happens at run() boundaries and no architectural state may leak
 *    between flushes;
 *
 *  - manifest identity: the fig1-shaped batch sweep and fig7-shaped
 *    machine sweep must keep producing byte-identical run manifests
 *    against the PR-5 goldens at jobs=1/2/8 (same files the adapter
 *    equivalence test pins, re-checked here from the core-rewrite
 *    angle).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include "cpu/machine.hh"
#include "sched/job.hh"
#include "sim/batch_experiment.hh"
#include "sim/params_io.hh"
#include "stats/manifest.hh"
#include "stats/stats.hh"
#include "trace/workload_library.hh"

namespace sos {

/**
 * Reads the pipeline states a mid-run copy must carry over; a friend
 * of SmtCore, so it lives in namespace sos.
 */
class SmtCoreTestPeer
{
  public:
    explicit SmtCoreTestPeer(const SmtCore &core) : core_(core) {}

    /** Some context's fetch waits for a mispredicted branch. */
    bool
    redirectPending() const
    {
        return anyActive([this](std::size_t s) {
            return core_.fetchStall_[s] == SmtCore::redirectPending;
        });
    }

    /** Some context holds an op behind an icache miss. */
    bool
    heldFetch() const
    {
        return anyActive(
            [this](std::size_t s) { return core_.cold_[s].hasPending; });
    }

    /** Some context spins at a barrier. */
    bool
    barrierParked() const
    {
        return anyActive(
            [this](std::size_t s) { return core_.atBarrier_[s] != 0; });
    }

    /** Dispatched instructions still waiting on a producer. */
    std::vector<std::uint32_t>
    waitingConsumers() const
    {
        std::vector<std::uint32_t> ids;
        for (int i = 0; i < core_.numActive_; ++i) {
            const auto s = static_cast<std::size_t>(
                core_.activeList_[static_cast<std::size_t>(i)]);
            for (std::uint32_t k = 0; k < core_.robCount_[s]; ++k) {
                const std::uint32_t id =
                    core_.robSlab_[s * core_.robStride_ +
                                   (core_.robHead_[s] + k) %
                                       core_.robStride_];
                const SmtCore::InFlight &inst = core_.slab_[id];
                if (!inst.completed && inst.waitCount > 0)
                    ids.push_back(id);
            }
        }
        return ids;
    }

    /** One of @p ids (waiting before the last cycle) became ready. */
    bool
    anyWoken(const std::vector<std::uint32_t> &ids) const
    {
        for (const std::uint32_t id : ids) {
            const SmtCore::InFlight &inst = core_.slab_[id];
            if (!inst.completed && inst.waitCount == 0)
                return true;
        }
        return false;
    }

  private:
    template <typename Pred>
    bool
    anyActive(Pred pred) const
    {
        for (int i = 0; i < core_.numActive_; ++i) {
            if (pred(static_cast<std::size_t>(
                    core_.activeList_[static_cast<std::size_t>(i)])))
                return true;
        }
        return false;
    }

    const SmtCore &core_;
};

namespace {

std::unique_ptr<Job>
makeJob(std::uint32_t id, const std::string &workload, int threads = 1)
{
    return std::make_unique<Job>(
        id, WorkloadLibrary::instance().get(workload),
        0x900d5eedULL ^ id, threads, false);
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

/** Render every PerfCounters field; any divergence shows as a diff. */
std::string
renderCounters(const char *label, const PerfCounters &pc)
{
    std::ostringstream os;
    os << "[" << label << "]\n";
    const auto field = [&os](const char *name, std::uint64_t v) {
        os << name << "=" << v << "\n";
    };
    field("cycles", pc.cycles);
    field("fetched", pc.fetched);
    field("dispatched", pc.dispatched);
    field("issued", pc.issued);
    field("retired", pc.retired);
    field("intOps", pc.intOps);
    field("fpOps", pc.fpOps);
    field("loads", pc.loads);
    field("stores", pc.stores);
    field("branches", pc.branches);
    field("barriers", pc.barriers);
    field("branchMispredicts", pc.branchMispredicts);
    field("spinOps", pc.spinOps);
    field("confIntQueue", pc.confIntQueue);
    field("confFpQueue", pc.confFpQueue);
    field("confIntRegs", pc.confIntRegs);
    field("confFpRegs", pc.confFpRegs);
    field("confRob", pc.confRob);
    field("confIntUnits", pc.confIntUnits);
    field("confFpUnits", pc.confFpUnits);
    field("confLsPorts", pc.confLsPorts);
    field("l1iHits", pc.l1iHits);
    field("l1iMisses", pc.l1iMisses);
    field("l1dHits", pc.l1dHits);
    field("l1dMisses", pc.l1dMisses);
    field("l2Hits", pc.l2Hits);
    field("l2Misses", pc.l2Misses);
    field("itlbMisses", pc.itlbMisses);
    field("dtlbMisses", pc.dtlbMisses);
    for (std::size_t s = 0; s < pc.slotRetired.size(); ++s)
        os << "slotRetired" << s << "=" << pc.slotRetired[s] << "\n";
    return os.str();
}

/**
 * The pinned scenario: a 4-context core running mixed workloads (one
 * parallel pair with barriers), a thread detached mid-interval, a new
 * job attached into the freed slot, and a final measured interval.
 * Every counter of every phase goes into the rendered document.
 */
std::string
fastpathScenario()
{
    CoreParams params;
    params.numContexts = 4;
    Machine machine(params, MemParams{});
    SmtCore &core = machine.core(0);

    auto ep = makeJob(1, "EP");
    auto gcc = makeJob(2, "GCC");
    auto array = makeJob(3, "ARRAY", 2);

    core.attachThread(0, bindingOf(*ep));
    core.attachThread(1, bindingOf(*gcc));
    core.attachThread(2, bindingOf(*array, 0));
    core.attachThread(3, bindingOf(*array, 1));

    std::string doc;
    PerfCounters warm;
    core.run(20000, warm);
    doc += renderCounters("warm", warm);

    // Mid-run context switch: squash the GCC thread, leave its slot
    // idle for a while, then attach a fresh job into it.
    core.detachThread(1);
    PerfCounters hole;
    core.run(5000, hole);
    doc += renderCounters("hole", hole);

    auto mg = makeJob(4, "MG");
    core.attachThread(1, bindingOf(*mg));
    PerfCounters refill;
    core.run(20000, refill);
    doc += renderCounters("refill", refill);

    // Tear down the parallel pair too (spin-loop squash path).
    core.detachThread(2);
    core.detachThread(3);
    PerfCounters tail;
    core.run(5000, tail);
    doc += renderCounters("tail", tail);
    return doc;
}

std::string
goldenPath(const std::string &name)
{
    return std::string(SOS_GOLDEN_DIR) + "/" + name + ".txt";
}

TEST(SmtCoreFastpath, CountersMatchPreRewriteGolden)
{
    const std::string document = fastpathScenario();
    const std::string path = goldenPath("fastpath_counters");
    if (std::getenv("SOS_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << document;
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden " << path
        << " (generate with SOS_REGEN_GOLDEN=1 on a known-good rev)";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(document, golden.str())
        << "counters diverged from the pre-rewrite core";
}

TEST(SmtCoreFastpath, RunBoundaryPartitionIsInvisible)
{
    // The batched-counter flush contract: counters accumulated over
    // one run(30000) equal the sum over any partition of the same
    // 30000 cycles, and the architectural stream does not depend on
    // where the run() boundaries fall.
    const auto scenario =
        [](const std::vector<std::uint64_t> &chunks) -> PerfCounters {
        CoreParams params;
        params.numContexts = 3;
        Machine machine(params, MemParams{});
        SmtCore &core = machine.core(0);
        auto a = makeJob(1, "FP");
        auto b = makeJob(2, "IS");
        auto c = makeJob(3, "WAVE");
        core.attachThread(0, bindingOf(*a));
        core.attachThread(1, bindingOf(*b));
        core.attachThread(2, bindingOf(*c));
        PerfCounters total;
        for (const std::uint64_t n : chunks)
            core.run(n, total);
        return total;
    };
    const PerfCounters whole = scenario({30000});
    const PerfCounters halves = scenario({15000, 15000});
    const PerfCounters ragged = scenario({1, 9999, 17000, 3000});
    EXPECT_EQ(renderCounters("x", whole), renderCounters("x", halves));
    EXPECT_EQ(renderCounters("x", whole), renderCounters("x", ragged));
}

/** Where one context's thread comes from. */
struct Placement
{
    int core;
    int slot;
    std::size_t job;
    int thread;
};

/** Step every core one cycle, in core order. */
void
stepMachine(Machine &machine, std::vector<PerfCounters> &counters)
{
    for (int k = 0; k < machine.numCores(); ++k)
        machine.core(k).run(1, counters[static_cast<std::size_t>(k)]);
}

/**
 * Copy a machine mid-run at @p contexts contexts per core and check
 * that the copy continues exactly like the original. The copy point
 * is the first cycle at or after @p from at which the machine holds,
 * all at once, a pending mispredict redirect, an op held behind an
 * icache miss, a thread of the mt_ARRAY job parked at its barrier and
 * a consumer its producer woke in that very cycle.
 */
void
checkCopyMidRun(int cores, int contexts, std::uint64_t from)
{
    std::vector<std::unique_ptr<Job>> jobs;
    jobs.push_back(makeJob(1, "GCC"));
    jobs.push_back(makeJob(2, "mt_ARRAY", 2));
    jobs.push_back(makeJob(3, "EP"));
    jobs.push_back(makeJob(4, "MG"));
    jobs.push_back(makeJob(5, "FP"));
    // Context order: GCC, both ARRAY threads, then single threads.
    const std::pair<std::size_t, int> threads[] = {
        {0, 0}, {1, 0}, {1, 1}, {2, 0}, {3, 0}, {4, 0}};

    CoreParams params;
    params.numContexts = contexts;
    Machine machine(params, MemParams{}, cores);
    std::vector<Placement> placements;
    for (int k = 0; k < cores; ++k) {
        for (int s = 0; s < contexts; ++s) {
            const auto [job, thread] =
                threads[placements.size() % std::size(threads)];
            placements.push_back({k, s, job, thread});
            machine.core(k).attachThread(
                s, bindingOf(*jobs[job], thread));
        }
    }

    std::vector<PerfCounters> warm(static_cast<std::size_t>(cores));
    for (std::uint64_t c = 0; c < from; ++c)
        stepMachine(machine, warm);
    bool found = false;
    for (int c = 0; c < 100000 && !found; ++c) {
        std::vector<std::vector<std::uint32_t>> waiting;
        for (int k = 0; k < cores; ++k)
            waiting.push_back(
                SmtCoreTestPeer(machine.core(k)).waitingConsumers());
        stepMachine(machine, warm);
        bool redirect = false;
        bool held = false;
        bool parked = false;
        bool woken = false;
        for (int k = 0; k < cores; ++k) {
            const SmtCoreTestPeer peer(machine.core(k));
            redirect = redirect || peer.redirectPending();
            held = held || peer.heldFetch();
            parked = parked || peer.barrierParked();
            woken = woken ||
                    peer.anyWoken(waiting[static_cast<std::size_t>(k)]);
        }
        found = redirect && held && parked && woken;
    }
    ASSERT_TRUE(found) << "no copy point at SMT " << contexts;

    // The copy: machine state by value, threads rebound to job copies
    // at the same stream positions (what the snapshot layer does).
    Machine copy(machine);
    std::vector<std::unique_ptr<Job>> job_copies;
    for (const auto &job : jobs)
        job_copies.push_back(std::make_unique<Job>(*job));
    for (const Placement &p : placements) {
        copy.core(p.core).rebindThread(
            p.slot, bindingOf(*job_copies[p.job], p.thread));
    }

    std::vector<PerfCounters> original(static_cast<std::size_t>(cores));
    std::vector<PerfCounters> copied(static_cast<std::size_t>(cores));
    for (int c = 0; c < 4000; ++c) {
        stepMachine(machine, original);
        stepMachine(copy, copied);
    }
    for (int k = 0; k < cores; ++k) {
        const auto i = static_cast<std::size_t>(k);
        EXPECT_GT(original[i].retired, 0u);
        EXPECT_EQ(renderCounters("core", copied[i]),
                  renderCounters("core", original[i]))
            << "SMT " << contexts << " core " << k << " copied at cycle "
            << machine.core(k).now() - 4000;
    }
}

TEST(SmtCoreFastpath, CopyMidRunContinuesIdentically)
{
    // SMT 1 runs the threads on three single-context cores, so the
    // ARRAY pair still meets at barriers across cores.
    for (const std::uint64_t from : {1001u, 7777u}) {
        checkCopyMidRun(3, 1, from);
        checkCopyMidRun(1, 3, from);
        checkCopyMidRun(1, 6, from);
    }
}

/** Render a manifest with everything host-dependent pinned. */
std::string
render(const char *tool, const SimConfig &config,
       const stats::Registry &registry)
{
    stats::Manifest manifest;
    manifest.tool = tool;
    manifest.gitRev = "golden";
    manifest.seed = config.seed;
    manifest.config = configPairs(config);
    return renderManifest(manifest, registry);
}

/** fig1-shaped sweep: batch SOS over Jsb coschedule spaces. */
std::string
fig1ConfigManifest(int jobs)
{
    SimConfig config = makeFastConfig();
    config.jobs = jobs;
    stats::Registry registry;
    const stats::Group experiments =
        stats::Group(registry).group("experiments");
    std::string document;
    {
        BatchExperiment small(experimentByLabel("Jsb(4,2,2)"), config);
        BatchExperiment sampled(experimentByLabel("Jsb(6,3,1)"),
                                config);
        for (BatchExperiment *exp : {&small, &sampled}) {
            exp->runSamplePhase();
            exp->runSymbiosValidation();
            exp->publishStats(experiments.group(
                stats::sanitizeSegment(exp->spec().label)));
        }
        document =
            render("adapter_equivalence_batch", config, registry);
    }
    return document;
}

/** fig7-shaped sweep: machine SOS over a 2-core Jm space. */
std::string
fig7ConfigManifest(int jobs)
{
    SimConfig config = makeFastConfig();
    config.jobs = jobs;
    stats::Registry registry;
    const stats::Group experiments =
        stats::Group(registry).group("experiments");
    std::string document;
    {
        const ExperimentSpec spec{
            .label = "Jm(4,2,2,2)",
            .entries = {{"FP"}, {"MG"}, {"GCC"}, {"IS"}},
            .numCores = 2,
        };
        BatchExperiment exp(spec, config);
        exp.runSamplePhase();
        exp.runSymbiosValidation();
        exp.publishStats(
            experiments.group(stats::sanitizeSegment(spec.label)));
        document =
            render("adapter_equivalence_machine", config, registry);
    }
    return document;
}

void
checkManifestGolden(const std::string &golden_name,
                    const std::function<std::string(int)> &make)
{
    const std::string document = make(1);
    EXPECT_EQ(make(2), document) << golden_name << ": jobs=2 differs";
    EXPECT_EQ(make(8), document) << golden_name << ": jobs=8 differs";

    const std::string path =
        std::string(SOS_GOLDEN_DIR) + "/" + golden_name + ".json";
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing golden " << path;
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(document, golden.str())
        << golden_name
        << ": manifest diverged from the pre-rewrite core";
}

TEST(SmtCoreFastpath, Fig1ConfigManifestByteIdentical)
{
    checkManifestGolden("batch", fig1ConfigManifest);
}

TEST(SmtCoreFastpath, Fig7ConfigManifestByteIdentical)
{
    checkManifestGolden("machine", fig7ConfigManifest);
}

} // namespace
} // namespace sos
