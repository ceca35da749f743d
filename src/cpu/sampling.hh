/**
 * @file
 * SMARTS-style sampling controller over the fidelity-polymorphic
 * execution stack (DESIGN.md section 10).
 *
 * A sampled interval alternates detailed and functional execution:
 * run W detailed warm-up cycles and M detailed measured cycles, take
 * each slot's retirement rate from the M window, then drain the
 * pipeline and fast-forward U cycles functionally (the
 * FunctionalExecutor retires rate * U uops per slot, warming caches,
 * TLBs and the branch predictor), and repeat until the interval is
 * spent. Stage and memory counters are real everywhere; only the
 * per-cycle conflict counters -- which exist solely in the detailed
 * windows -- are extrapolated over the full interval by the cycle
 * ratio.
 *
 * Rates are local to each controller call (one timeslice), never
 * carried across calls: the controller holds no mutable state, so an
 * engine fork rebuilds it on the copied core and stays trivially
 * deterministic.
 */

#ifndef SOS_CPU_SAMPLING_HH
#define SOS_CPU_SAMPLING_HH

#include <atomic>
#include <cstdint>

#include "cpu/functional_executor.hh"
#include "cpu/sample_windows.hh"
#include "cpu/smt_core.hh"

namespace sos {

namespace stats {
class Group;
} // namespace stats

/**
 * What sampled execution did over some span of one run: the fields
 * of SamplingStats as plain integers. A controller adds each interval
 * into the tally its caller passes, and run results carry it, so a
 * run measured up to several lengths holds the exact tally of each
 * length. Whoever reads a result decides whether its tally counts:
 * warm-up intervals are dropped, measured ones recorded.
 */
struct SamplingTally
{
    std::uint64_t periods = 0; ///< fast-forward windows run
    std::uint64_t fastForwardCycles = 0;
    std::uint64_t detailedCycles = 0;
    /** Full-length measurement windows (truncated tails excluded). */
    std::uint64_t measureWindows = 0;
    /** Sum and sum of squares of per-window retired uop counts. */
    std::uint64_t windowRetired = 0;
    std::uint64_t windowRetiredSq = 0;

    SamplingTally &operator+=(const SamplingTally &other);
    bool operator==(const SamplingTally &) const = default;
};

/**
 * Process-wide sampled-mode bookkeeping, the raw material of the
 * manifest's "sampling" stats group: the sum of every recorded
 * SamplingTally. Counters are integers accumulated with relaxed
 * atomics, so totals are independent of worker count and scheduling
 * order (the determinism contract).
 */
struct SamplingStats
{
    std::atomic<std::uint64_t> periods{0}; ///< fast-forward windows run
    std::atomic<std::uint64_t> fastForwardCycles{0};
    std::atomic<std::uint64_t> detailedCycles{0};
    /** Full-length measurement windows (truncated tails excluded). */
    std::atomic<std::uint64_t> measureWindows{0};
    /** Sum and sum of squares of per-window retired uop counts. */
    std::atomic<std::uint64_t> windowRetired{0};
    std::atomic<std::uint64_t> windowRetiredSq{0};

    void reset();
};

/** The process-wide accumulator. */
SamplingStats &samplingStats();

/** Zero the accumulator (between in-process experiments/tests). */
void resetSamplingStats();

/** Add @p tally to the process-wide accumulator. */
void recordSampling(const SamplingTally &tally);

/**
 * Register the sampled-mode stats group under @p group: the
 * configured windows, the cycle split between fidelity levels, and
 * the error-estimate fields (ipc_cv, the coefficient of variation of
 * IPC across full measurement windows -- the within-run estimate of
 * sampled-vs-full error -- and detailed_fraction, the share of cycles
 * actually simulated in detail).
 */
void publishSamplingStats(const stats::Group &group,
                          const SampleWindows &sample);

/** Drives one core through an interval at the configured fidelity. */
class SamplingController
{
  public:
    SamplingController(SmtCore &core, const SampleWindows &sample)
        : core_(core), fx_(core), sample_(sample)
    {
    }

    /**
     * Run @p cycles simulated cycles, accumulating counters exactly
     * like SmtCore::run would (cycles, slotRetired and memory deltas
     * included). With sampling disabled this IS SmtCore::run and
     * @p tally is untouched; enabled, conflict counters are
     * extrapolated as documented above and the interval's windows are
     * added to @p tally.
     */
    void run(std::uint64_t cycles, PerfCounters &counters,
             SamplingTally &tally);

    const SampleWindows &sample() const { return sample_; }

  private:
    SmtCore &core_;
    FunctionalExecutor fx_;
    SampleWindows sample_;
};

} // namespace sos

#endif // SOS_CPU_SAMPLING_HH
