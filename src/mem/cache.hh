/**
 * @file
 * Set-associative cache with LRU replacement.
 *
 * All caches in the hierarchy are shared among the hardware contexts
 * of the SMT core. Tags incorporate the accessor's address-space id,
 * so distinct jobs with overlapping virtual addresses conflict in the
 * cache exactly the way competing working sets do on real hardware --
 * this is what makes cache-sweeping jobs anti-symbiotic and produces
 * the cold-start effects of the paper's Section 8.
 */

#ifndef SOS_MEM_CACHE_HH
#define SOS_MEM_CACHE_HH

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace sos {

/** Geometry of one cache (or, degenerately, a TLB). */
struct CacheParams
{
    /** Human-readable name for reporting. */
    std::string name = "cache";
    /** Total capacity in bytes. */
    std::uint32_t sizeBytes = 32 * 1024;
    /** Line size in bytes (page size for a TLB). */
    std::uint32_t lineBytes = 64;
    /** Associativity; sizeBytes / lineBytes / assoc sets. */
    std::uint32_t assoc = 2;

    /**
     * Geometry equality (name included: it names the unit's role).
     * Machine::coreClasses partitions cores by comparing params, so
     * every field that affects behaviour must participate.
     */
    bool operator==(const CacheParams &) const = default;
};

/**
 * Timing-model cache: tracks only tags and recency, not data.
 *
 * Writes allocate (write-back write-allocate policy); write-back
 * traffic is not separately modelled, which affects only absolute
 * bandwidth numbers, not the relative contention the scheduler
 * observes.
 */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Look up (and on miss, allocate) the line containing addr.
     *
     * Defined inline below: one lookup runs for every load, store and
     * icache-line fetch the core simulates, so the body must be
     * visible to the per-cycle loops (DESIGN.md section 9).
     *
     * @param asid Address-space id of the accessor (distinct per job).
     * @param addr Virtual byte address.
     * @return True on hit.
     */
    bool access(std::uint16_t asid, std::uint64_t addr);

    /** True if the line is resident (no allocation, no LRU update). */
    bool probe(std::uint16_t asid, std::uint64_t addr) const;

    /**
     * Allocate the line without touching the demand hit/miss counters
     * (prefetch fills must not pollute the Dcache predictor signal).
     */
    void prefetchFill(std::uint16_t asid, std::uint64_t addr);

    /** Invalidate every line. */
    void flush();

    /** Invalidate all lines belonging to one address space. */
    void flushAsid(std::uint16_t asid);

    /** Number of lines currently valid (for tests and reporting). */
    std::uint64_t residentLines() const;

    /** Lifetime hits. */
    std::uint64_t hits() const { return hits_; }

    /** Lifetime misses. */
    std::uint64_t misses() const { return misses_; }

    /** Zero the hit/miss counters (contents are kept). */
    void resetStats();

    const CacheParams &params() const { return params_; }

  private:
    struct Way
    {
        std::uint64_t tag = 0;
        std::uint32_t lruStamp = 0;
        bool valid = false;
    };

    std::uint64_t lineFor(std::uint16_t asid, std::uint64_t addr) const;

    /** Find the LRU victim way for @p line's set (hit => nullptr). */
    Way *findOrVictim(std::uint64_t line);

    CacheParams params_;
    std::uint32_t numSets_;
    std::uint32_t lineShift_; ///< log2(lineBytes), avoids division
    std::uint32_t lruClock_ = 0;
    std::vector<Way> ways_; // numSets_ * assoc, set-major
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

inline std::uint64_t
Cache::lineFor(std::uint16_t asid, std::uint64_t addr) const
{
    // Fold the address space id into the high tag bits: same virtual
    // line in different jobs occupies the same set but never matches.
    return (addr >> lineShift_) |
           (static_cast<std::uint64_t>(asid) << 48);
}

inline Cache::Way *
Cache::findOrVictim(std::uint64_t line)
{
    const std::uint32_t set =
        static_cast<std::uint32_t>(line) & (numSets_ - 1);
    Way *const base = &ways_[static_cast<std::size_t>(set) * params_.assoc];

    ++lruClock_;
    const std::uint32_t assoc = params_.assoc;
    // Hit scan first: the common case exits without tracking a
    // victim, so the hot path is a bare tag compare per way.
    for (std::uint32_t w = 0; w < assoc; ++w) {
        Way &way = base[w];
        if (way.valid && way.tag == line) {
            way.lruStamp = lruClock_;
            return nullptr;
        }
    }
    // Miss: last invalid way if any, else the first least-recently
    // used way (the same choice the former fused scan made).
    Way *victim = base;
    for (std::uint32_t w = 0; w < assoc; ++w) {
        Way &way = base[w];
        if (!way.valid)
            victim = &way;
        else if (victim->valid && way.lruStamp < victim->lruStamp)
            victim = &way;
    }
    return victim;
}

inline bool
Cache::access(std::uint16_t asid, std::uint64_t addr)
{
    const std::uint64_t line = lineFor(asid, addr);
    Way *const victim = findOrVictim(line);
    if (victim == nullptr) {
        ++hits_;
        return true;
    }
    victim->valid = true;
    victim->tag = line;
    victim->lruStamp = lruClock_;
    ++misses_;
    return false;
}

inline void
Cache::prefetchFill(std::uint16_t asid, std::uint64_t addr)
{
    const std::uint64_t line = lineFor(asid, addr);
    Way *const victim = findOrVictim(line);
    if (victim == nullptr)
        return; // already resident: recency refreshed only
    victim->valid = true;
    victim->tag = line;
    victim->lruStamp = lruClock_;
}

inline bool
Cache::probe(std::uint16_t asid, std::uint64_t addr) const
{
    const std::uint64_t line = lineFor(asid, addr);
    const std::uint32_t set =
        static_cast<std::uint32_t>(line) & (numSets_ - 1);
    const Way *const base =
        &ways_[static_cast<std::size_t>(set) * params_.assoc];
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if (base[w].valid && base[w].tag == line)
            return true;
    }
    return false;
}

} // namespace sos

#endif // SOS_MEM_CACHE_HH
