/**
 * @file
 * Deterministic, resumable synthetic instruction stream generator.
 *
 * One TraceGenerator produces the dynamic micro-op stream of one
 * software thread. The stream is a pure function of (profile, seed),
 * and the generator object is copyable, so a job that is descheduled
 * resumes exactly where it stopped -- a requirement of the paper's
 * experimental setup, where every job must receive the same number of
 * cycles and progress is accounted per timeslice.
 */

#ifndef SOS_TRACE_TRACE_GENERATOR_HH
#define SOS_TRACE_TRACE_GENERATOR_HH

#include <array>
#include <cstdint>

#include "common/rng.hh"
#include "trace/uop.hh"
#include "trace/workload_profile.hh"

namespace sos {

/** Emits the deterministic micro-op stream of one software thread. */
class TraceGenerator
{
  public:
    /**
     * Create a generator.
     *
     * @param profile Workload model; must outlive the generator.
     * @param code_seed Identity of the *program*: block lengths,
     *        branch targets and per-site branch biases derive from it.
     *        Threads of one parallel job share it -- they execute the
     *        same code (and so train the same predictor entries and
     *        icache lines).
     * @param data_seed Identity of the *execution*: instruction-mix
     *        draws and data addresses derive from it, so sibling
     *        threads work through different data. 0 means "same as
     *        code_seed" (the common sequential-job case).
     */
    TraceGenerator(const WorkloadProfile &profile,
                   std::uint64_t code_seed, std::uint64_t data_seed = 0);

    /** Produce the next micro-op of the stream. */
    UOp next();

    /** Number of micro-ops generated so far. */
    std::uint64_t count() const { return count_; }

    /** The workload model driving this stream. */
    const WorkloadProfile &profile() const { return *profile_; }

  private:
    /** Dedicated chase register creating serialized load chains. */
    static constexpr std::uint8_t chaseReg = 31;

    /** Number of code blocks the synthetic CFG jumps between. */
    static constexpr std::uint64_t blockBytes = 64;

    /** Entries in the precomputed geometric sampling tables. */
    static constexpr std::size_t geomTableSize = 512;

    std::uint8_t allocDst(bool fp);
    std::uint8_t pickSrc(bool fp);
    std::uint64_t dataAddress(bool &serialized);
    void advancePc(const UOp &op);
    void fillGeometricTable(
        std::array<std::uint16_t, geomTableSize> &table, double mean,
        double floor);
    std::uint64_t
    sampleTable(const std::array<std::uint16_t, geomTableSize> &table);
    std::uint64_t blockLen(std::uint64_t entry_pc) const;

    std::array<std::uint16_t, geomTableSize> bbTable_{};
    std::array<std::uint16_t, geomTableSize> depTable_{};

    const WorkloadProfile *profile_;
    Rng rng_;
    std::uint64_t seed_;

    std::uint64_t count_ = 0;
    std::uint64_t pc_;
    std::uint64_t bbRemaining_;
    std::uint64_t branchCount_ = 0;

    /**
     * Calls remaining until the next barrier (0 when the profile has
     * no syncInterval). A countdown instead of `count_ % syncInterval`
     * keeps a 64-bit division off the per-op path.
     */
    std::uint64_t toSync_ = 0;

    /**
     * @name Per-profile constants, hoisted off the per-op path
     * Probabilities are integer thresholds on the 53-bit draw
     * `rng_.next() >> 11` (Rng::probabilityThreshold): the draw is
     * below the threshold of p exactly when `uniform() < p` holds, so
     * the stream is the one floating-point compares would draw.
     * @{
     */
    std::uint64_t wsBytes_ = 64;   ///< max(workingSetBytes, 64)
    std::uint64_t hotBytes_ = 64;  ///< max(hotBytes, 64)
    std::uint64_t codeBytes_ = 64; ///< max(codeBytes, blockBytes)
    std::uint64_t numBlocks_ = 1;  ///< codeBytes_ / blockBytes
    /** Cumulative op-class fractions, FpAdd through Store. */
    std::array<std::uint64_t, 6> classThreshold_{};
    std::uint64_t predictableThreshold_ = 0; ///< branchPredictability
    std::uint64_t takenThreshold_ = 0;       ///< branchTakenRate
    /** The per-PC bias compare: 16-bit hash < 65536 * takenRate. */
    std::uint32_t biasThreshold_ = 0;
    std::uint64_t streamThreshold_ = 0; ///< streamFraction
    std::uint64_t hotThreshold_ = 0;    ///< streamFraction + hotFraction
    std::uint64_t chaseThreshold_ = 0;  ///< chaseFraction
    /** min(1, 1.5 * fpFraction): FP destination of a load. */
    std::uint64_t fpLoadThreshold_ = 0;
    bool hasFp_ = false; ///< fpFraction() > 0: stores may read FP
    /** @} */

    /** Ring of recently produced register ids, per class. */
    std::array<std::uint8_t, 32> intRing_{};
    std::array<std::uint8_t, 32> fpRing_{};
    std::uint32_t intProduced_ = 0;
    std::uint32_t fpProduced_ = 0;

    /** Round-robin destination allocation cursors. */
    std::uint32_t intDstCursor_ = 0;
    std::uint32_t fpDstCursor_ = 0;

    /** Sequential stream pointers into the working set. */
    std::array<std::uint64_t, 4> streamPos_{};
    std::uint32_t streamCursor_ = 0;
};

} // namespace sos

#endif // SOS_TRACE_TRACE_GENERATOR_HH
