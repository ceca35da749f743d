/**
 * @file
 * Memory system of a CMP of SMT cores.
 *
 * The hierarchy is split along the machine's sharing topology:
 *
 *  - SharedL2 models the board-level cache every core of the machine
 *    shares.  It keeps per-core contention counters (demand accesses,
 *    hits, misses, prefetch fills) so machine-level schedulers can see
 *    which core is pounding the shared level.
 *
 *  - CacheHierarchy is one core's *view* of memory: private L1s, TLBs
 *    and stride prefetcher, plus a reference to the machine's
 *    SharedL2.  SmtCore borrows a view by reference; the Machine owns
 *    both halves.
 *
 * A 1-core machine reproduces the former single-core hierarchy
 * bit-for-bit: the same caches see the same access sequence, only the
 * ownership moved.
 */

#ifndef SOS_MEM_CACHE_HIERARCHY_HH
#define SOS_MEM_CACHE_HIERARCHY_HH

#include <cstdint>
#include <vector>

#include "mem/cache.hh"
#include "mem/prefetcher.hh"

namespace sos {

/** Configuration of the memory subsystem. */
struct MemParams
{
    CacheParams l1i{"l1i", 64 * 1024, 64, 2};
    CacheParams l1d{"l1d", 64 * 1024, 64, 4};
    /**
     * Board-level cache: 21264 systems shipped 2-8 MB. Sized so a
     * whole 12-job mix's data fits, as in the paper's regime where
     * "none [of the kernels] are large enough to seriously stress the
     * capacity of the cache even when run in combination".
     */
    CacheParams l2{"l2", 2 * 1024 * 1024, 64, 8};
    CacheParams itlb{"itlb", 128 * 8192, 8192, 4}; // 128 x 8K pages
    CacheParams dtlb{"dtlb", 256 * 8192, 8192, 4}; // 256 entries
    /** Additional latency beyond L1 on an L1 miss that hits in L2. */
    std::uint32_t l2HitLatency = 12;
    /** Additional latency on an L2 miss (main memory). */
    std::uint32_t memLatency = 90;
    /** Added latency for a TLB miss (software/hardware walk). */
    std::uint32_t tlbMissLatency = 30;

    /** Optional stride prefetcher (off by default; see ablation). */
    PrefetcherParams prefetch;

    /**
     * Field-wise equality.  Machine::coreClasses partitions cores by
     * comparing params, so every behavioural field participates; any
     * new member is automatically included by the defaulted operator.
     */
    bool operator==(const MemParams &) const = default;
};

/**
 * Check a memory configuration for structural validity: every cache
 * must have a positive geometry that divides evenly into sets, and
 * latencies must be non-degenerate.
 *
 * @throws std::invalid_argument describing the first violation.
 */
void validateMemParams(const MemParams &params);

/**
 * The machine's shared board-level cache.
 *
 * One instance per Machine; every core's CacheHierarchy view routes
 * its L1-miss traffic here.  Besides the Cache's own aggregate
 * hit/miss counters, the shared level attributes demand accesses,
 * hits, misses and prefetch fills to the requesting core -- the
 * contention signal a thread-to-core allocation policy can read.
 */
class SharedL2
{
  public:
    /** Per-core contention counters at the shared level. */
    struct CoreCounters
    {
        std::uint64_t accesses = 0; ///< demand lookups from this core
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t prefetchFills = 0;

        bool operator==(const CoreCounters &) const = default;
    };

    /**
     * @param params Machine memory configuration (uses .l2).
     * @param num_cores Cores sharing this cache (>= 1).
     */
    SharedL2(const MemParams &params, int num_cores);

    /**
     * Demand access from @p core; true on hit (allocates on miss).
     * Defined inline below: this sits on the simulator's per-L1-miss
     * path (DESIGN.md section 9).
     */
    bool access(int core, std::uint16_t asid, std::uint64_t addr);

    /** Prefetch fill from @p core (no demand counters touched). */
    void prefetchFill(int core, std::uint16_t asid, std::uint64_t addr);

    /** Invalidate every line (counters are kept). */
    void flush();

    int numCores() const { return static_cast<int>(counters_.size()); }

    /** The underlying cache (aggregate counters, geometry). */
    const Cache &cache() const { return l2_; }

    /** Contention counters of one core. */
    const CoreCounters &
    coreCounters(int core) const
    {
        return counters_.at(static_cast<std::size_t>(core));
    }

  private:
    Cache l2_;
    std::vector<CoreCounters> counters_;
};

/**
 * One core's view of the memory system: private L1 caches, TLBs and
 * prefetcher in front of the machine-shared L2.
 *
 * Latency-only model: misses overlap freely (the out-of-order core
 * provides the MLP limit through its queues and rename registers).
 * Private structures are still shared among the *contexts* of the
 * owning SMT core and ASID-tagged, so coscheduled jobs evict each
 * other's lines -- the mechanism behind the Dcache predictor and the
 * Section 8 cold-start effects.  Jobs on different cores contend only
 * through the shared L2.
 */
class CacheHierarchy
{
  public:
    /**
     * @param params Memory configuration (private level geometry).
     * @param l2 The machine's shared cache (must outlive the view).
     * @param core_id This core's index for contention attribution.
     */
    CacheHierarchy(const MemParams &params, SharedL2 &l2, int core_id);

    /**
     * Fork copy: duplicate @p other's private caches, TLBs and
     * prefetcher state exactly, but route shared-level traffic to
     * @p l2 (the copying Machine's own SharedL2).  Together with the
     * SharedL2's value copy this reproduces the memory system of a
     * warmed machine bit-for-bit.
     */
    CacheHierarchy(const CacheHierarchy &other, SharedL2 &l2);

    /**
     * Perform a data access.
     *
     * @param asid Address space of the accessing job.
     * @param addr Virtual byte address.
     * @param write True for stores.
     * @param pc Address of the accessing instruction (trains the
     *        prefetcher on loads; 0 disables training for the access).
     * @return Extra cycles beyond the L1 hit latency (0 on L1 hit).
     */
    std::uint32_t dataAccess(std::uint16_t asid, std::uint64_t addr,
                             bool write, std::uint64_t pc = 0);

    /**
     * Perform an instruction fetch access for one cache line.
     *
     * @return Extra stall cycles (0 when the line is in L1I).
     */
    std::uint32_t instAccess(std::uint16_t asid, std::uint64_t pc);

    /**
     * Invalidate the private levels *and* the shared L2. On a
     * multicore machine the L2 is shared, so this also coldens every
     * other core's view of it.
     */
    void flushAll();

    const MemParams &params() const { return params_; }

    /** @name Component access for counters and tests. @{ */
    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &itlb() const { return itlb_; }
    const Cache &dtlb() const { return dtlb_; }
    const StridePrefetcher &prefetcher() const { return prefetcher_; }
    /** This core's contention counters at the shared level. */
    const SharedL2::CoreCounters &
    l2CoreCounters() const
    {
        return l2_.coreCounters(coreId_);
    }
    /** @} */

  private:
    /** Prefetcher training + fills for a load (out of line: rare). */
    void trainPrefetcher(std::uint16_t asid, std::uint64_t addr,
                         std::uint64_t pc);

    MemParams params_;
    int coreId_;
    SharedL2 &l2_;
    Cache l1i_;
    Cache l1d_;
    Cache itlb_;
    Cache dtlb_;
    StridePrefetcher prefetcher_;
    std::vector<std::uint64_t> prefetchScratch_;
};

inline bool
SharedL2::access(int core, std::uint16_t asid, std::uint64_t addr)
{
    CoreCounters &c = counters_[static_cast<std::size_t>(core)];
    ++c.accesses;
    const bool hit = l2_.access(asid, addr);
    if (hit)
        ++c.hits;
    else
        ++c.misses;
    return hit;
}

inline std::uint32_t
CacheHierarchy::dataAccess(std::uint16_t asid, std::uint64_t addr,
                           bool write, std::uint64_t pc)
{
    std::uint32_t extra = 0;
    if (!dtlb_.access(asid, addr))
        extra += params_.tlbMissLatency;
    if (!l1d_.access(asid, addr)) {
        extra += params_.l2HitLatency;
        if (!l2_.access(coreId_, asid, addr))
            extra += params_.memLatency;
    }

    if (!write && pc != 0 && prefetcher_.enabled())
        trainPrefetcher(asid, addr, pc);
    return extra;
}

inline std::uint32_t
CacheHierarchy::instAccess(std::uint16_t asid, std::uint64_t pc)
{
    std::uint32_t extra = 0;
    if (!itlb_.access(asid, pc))
        extra += params_.tlbMissLatency;
    if (!l1i_.access(asid, pc)) {
        extra += params_.l2HitLatency;
        if (!l2_.access(coreId_, asid, pc))
            extra += params_.memLatency;
    }
    return extra;
}

} // namespace sos

#endif // SOS_MEM_CACHE_HIERARCHY_HH
