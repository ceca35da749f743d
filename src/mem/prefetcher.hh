/**
 * @file
 * Reference-prediction-table stride prefetcher.
 *
 * An extension beyond the paper's machine (default off): a per-entry
 * PC-indexed table learns the stride of each load site and prefetches
 * ahead into the cache hierarchy. The ablation harness uses it to ask
 * a question the paper could not: does hiding streaming misses narrow
 * the schedule-sensitivity SOS exploits?
 *
 * Entries are tagged with the accessor's ASID so coscheduled jobs
 * train separate streams but still compete for table capacity -- one
 * more shared front-side resource, like the branch predictor.
 */

#ifndef SOS_MEM_PREFETCHER_HH
#define SOS_MEM_PREFETCHER_HH

#include <cstdint>
#include <vector>

namespace sos {

/** Configuration of the stride prefetcher. */
struct PrefetcherParams
{
    bool enabled = false;
    /** log2 of reference-prediction-table entries. */
    int tableBits = 9;
    /** Consecutive same-stride hits required before issuing. */
    int confidenceThreshold = 2;
    /** Lines prefetched ahead of a confident stream. */
    int degree = 2;

    bool operator==(const PrefetcherParams &) const = default;
};

/** Stride predictor over load addresses. */
class StridePrefetcher
{
  public:
    /** @p params must pass validateMemParams (cache_hierarchy.hh). */
    explicit StridePrefetcher(const PrefetcherParams &params);

    /**
     * Observe one demand load and emit prefetch addresses.
     *
     * @param asid Accessor's address space.
     * @param pc Load instruction address (table index).
     * @param addr Demand byte address.
     * @param out Receives 0..degree prefetch byte addresses.
     */
    void observe(std::uint16_t asid, std::uint64_t pc,
                 std::uint64_t addr,
                 std::vector<std::uint64_t> &out);

    bool enabled() const { return params_.enabled; }

    /** Lifetime prefetches issued. */
    std::uint64_t issued() const { return issued_; }

    /** Forget all training state. */
    void reset();

  private:
    struct Entry
    {
        std::uint64_t tag = 0; ///< pc ^ salted asid; 0 = invalid
        std::uint64_t lastAddr = 0;
        std::int64_t stride = 0;
        int confidence = 0;
    };

    PrefetcherParams params_;
    std::vector<Entry> table_;
    std::uint64_t mask_;
    std::uint64_t issued_ = 0;
};

} // namespace sos

#endif // SOS_MEM_PREFETCHER_HH
