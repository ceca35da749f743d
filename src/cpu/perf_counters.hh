/**
 * @file
 * The hardware performance counters SOS reads.
 *
 * These mirror the 21264-style counters the paper's scheduler samples:
 * per-resource conflict cycles (a resource "conflicts" in a cycle when
 * some instruction wanted it and could not have it), cache and TLB
 * hits/misses, instruction class mix, and per-context retired
 * instruction counts (the basis of weighted speedup).
 */

#ifndef SOS_CPU_PERF_COUNTERS_HH
#define SOS_CPU_PERF_COUNTERS_HH

#include <array>
#include <cstdint>

#include "cpu/core_params.hh"

namespace sos {

namespace stats {
class Group;
} // namespace stats

/** Counter snapshot accumulated over a measurement interval. */
struct PerfCounters
{
    std::uint64_t cycles = 0;

    /** @name Pipeline activity @{ */
    std::uint64_t fetched = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t issued = 0;
    std::uint64_t retired = 0;
    /** @} */

    /** @name Instruction classes (at dispatch) @{ */
    std::uint64_t intOps = 0; ///< IntAlu + IntMult + Branch
    std::uint64_t fpOps = 0;  ///< FpAdd + FpMult + FpDiv
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t barriers = 0;
    std::uint64_t branchMispredicts = 0;
    /** Busy-wait ops dispatched by threads spinning at a barrier. */
    std::uint64_t spinOps = 0;
    /** @} */

    /**
     * @name Conflict cycles
     * Each increments at most once per cycle, so dividing by cycles
     * yields the paper's "percentage of cycles for which the schedule
     * conflicts on the resource".
     * @{
     */
    std::uint64_t confIntQueue = 0;
    std::uint64_t confFpQueue = 0;
    std::uint64_t confIntRegs = 0;
    std::uint64_t confFpRegs = 0;
    std::uint64_t confRob = 0; ///< shared scoreboard/reorder entries
    std::uint64_t confIntUnits = 0;
    std::uint64_t confFpUnits = 0;
    std::uint64_t confLsPorts = 0;
    /** @} */

    /** @name Memory system @{ */
    std::uint64_t l1iHits = 0, l1iMisses = 0;
    std::uint64_t l1dHits = 0, l1dMisses = 0;
    std::uint64_t l2Hits = 0, l2Misses = 0;
    std::uint64_t itlbMisses = 0, dtlbMisses = 0;
    /** @} */

    /** Retired instructions per hardware context slot. */
    std::array<std::uint64_t, MaxContexts> slotRetired{};

    /** Zero every counter. */
    void clear() { *this = PerfCounters(); }

    /**
     * Field-wise equality: two intervals measured the same execution
     * iff every counter matches (the determinism tests' definition of
     * "bit-identical").
     */
    bool operator==(const PerfCounters &other) const = default;

    /** Accumulate another interval into this one. */
    PerfCounters &operator+=(const PerfCounters &other);

    /** Retired instructions per cycle over the interval. */
    double ipc() const;

    /** L1 data-cache hit rate in [0, 1]. */
    double l1dHitRate() const;

    /** Conflict count as a percentage of interval cycles. */
    double conflictPct(std::uint64_t conflict_cycles) const;

    /**
     * Sum of all eight resource-conflict percentages (the paper's
     * AllConf predictor input).
     */
    double allConflictPct() const;

    /**
     * Absolute difference between the FP and integer shares of the
     * dispatched arithmetic mix (the Diversity predictor input).
     */
    double mixImbalance() const;

    /**
     * Register every counter (and the derived rates) under @p group,
     * e.g. "<group>.pipeline.retired", "<group>.mem.l1d.misses",
     * "<group>.derived.ipc", holding the values they have now.
     */
    void registerStats(const stats::Group &group) const;
};

} // namespace sos

#endif // SOS_CPU_PERF_COUNTERS_HH
