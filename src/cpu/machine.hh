/**
 * @file
 * The machine model: a CMP of homogeneous SMT cores behind one L2.
 *
 * A Machine owns N SmtCores, one private CacheHierarchy view per core
 * (L1s, TLBs, prefetcher) and the SharedL2 all views route their
 * misses through.  Everything above this layer -- engines, schedule
 * sweeps, experiments -- borrows cores by reference, so the one-core
 * machine is exactly the old single-core simulator with its ownership
 * inverted, and reproduces it bit-for-bit.
 *
 * Determinism: the machine itself holds no scheduling state.  Drivers
 * step cores in core-index order (see MachineEngine), so any run is a
 * pure function of (params, bound workloads), never of wall-clock or
 * worker count.
 */

#ifndef SOS_CPU_MACHINE_HH
#define SOS_CPU_MACHINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cpu/smt_core.hh"
#include "mem/cache_hierarchy.hh"

namespace sos {

namespace stats {
class Group;
} // namespace stats

/** Most cores any machine can be built with. */
constexpr int MaxCores = 16;

/** Static configuration of a machine. */
struct MachineParams
{
    /** Number of SMT cores sharing the L2. */
    int numCores = 1;

    /**
     * Default per-core microarchitecture.  When @c cores is empty this
     * is every core's configuration (homogeneous CMP, the pre-config
     * behaviour); otherwise it is only the template heterogeneous
     * configs start from.
     */
    CoreParams core;

    /**
     * Default memory configuration.  Always supplies the shared-L2
     * geometry (@c mem.l2); when @c coreMem is empty it also supplies
     * every core's private levels and latencies.
     */
    MemParams mem;

    /**
     * Per-core microarchitecture overrides.  Empty for a homogeneous
     * machine; otherwise exactly @c numCores entries, one per core in
     * core-index order.  Kept after the original members so aggregate
     * initialisation `MachineParams{n, core, mem}` stays valid.
     */
    std::vector<CoreParams> cores;

    /**
     * Per-core private-memory overrides (L1s, TLBs, latencies,
     * prefetcher).  Empty for uniform memory; otherwise exactly
     * @c numCores entries.  The shared-L2 geometry always comes from
     * @c mem.l2 -- a per-core entry's .l2 field is ignored.
     */
    std::vector<MemParams> coreMem;

    bool operator==(const MachineParams &) const = default;

    /** Core @p k's microarchitecture (override or shared default). */
    const CoreParams &
    coreParams(int k) const
    {
        return cores.empty() ? core
                             : cores.at(static_cast<std::size_t>(k));
    }

    /** Core @p k's private-memory configuration. */
    const MemParams &
    memParams(int k) const
    {
        return coreMem.empty() ? mem
                               : coreMem.at(static_cast<std::size_t>(k));
    }

    /** True when every core is identical (the pre-config fast path). */
    bool homogeneous() const;

    /**
     * Partition cores into equivalence classes of identical
     * configuration: classIds[k] is core k's class, numbered 0.. in
     * order of first appearance (so class 0 always contains core 0).
     * Two cores are in one class iff their CoreParams and effective
     * MemParams compare equal -- the invariance classes under which
     * MachineScheduleSpace keys may still treat cores as
     * interchangeable.
     */
    std::vector<int> coreClasses() const;
};

/** @p num_cores identical cores of @p core over private levels @p mem. */
MachineParams homogeneousMachine(const CoreParams &core, const MemParams &mem,
                                 int num_cores = 1);

/**
 * Check a machine configuration: core count within [1, MaxCores] plus
 * the per-core and memory validations.
 *
 * @throws std::invalid_argument describing the first violation.
 */
void validateMachineParams(const MachineParams &params);

/** Lifetime demand hits and misses of one cache or TLB. */
struct CacheCounts
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    bool operator==(const CacheCounts &) const = default;
};

/**
 * A machine's memory-system counters as plain integers: a value a run
 * result carries, so manifests publish them after the machine is gone.
 * Counts are lifetime counts of the machine they were read from (an
 * engine fork inherits its warm-up's).
 */
struct MemoryCounters
{
    /** One core's private levels and its share of the shared L2. */
    struct Core
    {
        CacheCounts l1i;
        CacheCounts l1d;
        CacheCounts itlb;
        CacheCounts dtlb;
        std::uint64_t prefetchesIssued = 0;
        SharedL2::CoreCounters l2;

        bool operator==(const Core &) const = default;
    };

    /** The shared L2's aggregate counters. */
    CacheCounts l2;
    /** Indexed by core. */
    std::vector<Core> cores;

    bool operator==(const MemoryCounters &) const = default;

    /**
     * Assign the counters under @p group: the shared cache under
     * "l2", and one "core<k>" subgroup per core holding its private
     * levels ("l1i", "l1d", "itlb", "dtlb", each with a "miss_rate"),
     * "prefetcher.issued" and its shared-L2 contention counters
     * ("l2_contention.*", with its "miss_share" of all cores' misses).
     */
    void registerStats(const stats::Group &group) const;
};

/** A chip multiprocessor of SMT cores with a shared L2. */
class Machine
{
  public:
    explicit Machine(const MachineParams &params);

    /** Single- or multi-core convenience constructor. */
    Machine(const CoreParams &core, const MemParams &mem,
            int num_cores = 1);

    /**
     * Value copy of the whole machine -- shared L2, per-core memory
     * views and cores with their complete pipeline state.  Cores and
     * views are rebuilt against the copy's own SharedL2, so the two
     * machines share nothing and can run concurrently.  Active
     * contexts still reference the original run's generators until
     * rebound (SmtCore::rebindThread); the MachineEngine fork
     * constructor copies a machine and rebinds every context.
     */
    Machine(const Machine &other);

    int numCores() const { return static_cast<int>(cores_.size()); }

    SmtCore &core(int k) { return *cores_.at(static_cast<std::size_t>(k)); }
    const SmtCore &
    core(int k) const
    {
        return *cores_.at(static_cast<std::size_t>(k));
    }

    /** Core @p k's private view of memory. */
    CacheHierarchy &
    memory(int k)
    {
        return *views_.at(static_cast<std::size_t>(k));
    }
    const CacheHierarchy &
    memory(int k) const
    {
        return *views_.at(static_cast<std::size_t>(k));
    }

    SharedL2 &sharedL2() { return l2_; }
    const SharedL2 &sharedL2() const { return l2_; }

    const MachineParams &params() const { return params_; }

    /** The memory-system counters as they stand now. */
    MemoryCounters memoryCounters() const;

  private:
    MachineParams params_;
    SharedL2 l2_;
    std::vector<std::unique_ptr<CacheHierarchy>> views_;
    std::vector<std::unique_ptr<SmtCore>> cores_;
};

} // namespace sos

#endif // SOS_CPU_MACHINE_HH
