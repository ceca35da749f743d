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

#include <algorithm>
#include <array>
#include <cstdint>

#include "common/logging.hh"
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

    /**
     * Produce the next micro-op of the stream.
     *
     * Defined inline below, with the helpers it calls: the functional
     * fast-forward and the core's fetch stage draw one micro-op per
     * call, so the body must be visible to their loops (DESIGN.md
     * section 9).
     */
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

    /** Rng::probabilityThreshold(0.5). */
    static constexpr std::uint64_t halfThreshold = std::uint64_t{1} << 52;

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

inline std::uint64_t
TraceGenerator::sampleTable(
    const std::array<std::uint16_t, geomTableSize> &table)
{
    return table[rng_.next() & (geomTableSize - 1)];
}

inline std::uint64_t
TraceGenerator::blockLen(std::uint64_t entry_pc) const
{
    // Deterministic per entry point: the synthetic CFG is a fixed
    // graph, so branch *sites* are stable addresses a real predictor
    // can train on, and their count scales with the code footprint.
    return bbTable_[mix64(entry_pc ^ seed_) & (geomTableSize - 1)];
}

inline std::uint8_t
TraceGenerator::allocDst(bool fp)
{
    if (fp) {
        // FP destinations rotate through f0..f23 (arch ids 32..55).
        const std::uint8_t reg = static_cast<std::uint8_t>(
            NumIntArchRegs + (fpDstCursor_++ % 24));
        fpRing_[fpProduced_++ % fpRing_.size()] = reg;
        return reg;
    }
    // Integer destinations rotate through r0..r23; r31 is reserved for
    // pointer-chase chains.
    const std::uint8_t reg = static_cast<std::uint8_t>(intDstCursor_++ % 24);
    intRing_[intProduced_++ % intRing_.size()] = reg;
    return reg;
}

inline std::uint8_t
TraceGenerator::pickSrc(bool fp)
{
    const auto &ring = fp ? fpRing_ : intRing_;
    const std::uint32_t produced = fp ? fpProduced_ : intProduced_;
    if (produced == 0)
        return NoReg;
    // Distance to the producer: geometric around the profile mean,
    // clamped to the producers actually in the ring. Small distances
    // serialize the stream; large distances expose ILP.
    std::uint64_t dist = sampleTable(depTable_);
    const std::uint64_t max_dist =
        std::min<std::uint64_t>(produced, ring.size());
    dist = std::min<std::uint64_t>(dist, max_dist);
    const std::uint32_t index =
        (produced - static_cast<std::uint32_t>(dist)) %
        static_cast<std::uint32_t>(ring.size());
    return ring[index];
}

inline std::uint64_t
TraceGenerator::dataAddress(bool &serialized)
{
    serialized = false;
    const std::uint64_t ws = wsBytes_;
    const std::uint64_t u = rng_.next() >> 11;
    std::uint64_t addr;
    if (u < streamThreshold_) {
        // Unit-stride walk; four interleaved streams model the several
        // concurrent array traversals of a loop nest. The pointers
        // stay below ws, so the wrap is a conditional subtract rather
        // than a modulo.
        const std::size_t s = streamCursor_++ % streamPos_.size();
        std::uint64_t pos = streamPos_[s] + 8;
        if (pos >= ws)
            pos -= ws;
        streamPos_[s] = pos;
        addr = pos;
    } else if (u < hotThreshold_) {
        addr = ws + rng_.below(hotBytes_); // hot region sits above the arrays
    } else {
        addr = rng_.below(ws);
        serialized = (rng_.next() >> 11) < chaseThreshold_;
    }
    return addr & ~std::uint64_t{7};
}

inline void
TraceGenerator::advancePc(const UOp &op)
{
    if (op.cls == OpClass::Branch && op.taken) {
        // Deterministic target per branch PC: the synthetic CFG is a
        // fixed graph, so the BTB and icache see stable code.
        const std::uint64_t target_block =
            mix64(op.pc ^ seed_ ^ 0x5ca1ab1eULL) % numBlocks_;
        pc_ = 0x1000 + target_block * blockBytes;
    } else {
        pc_ += 4;
        if (pc_ >= 0x1000 + codeBytes_)
            pc_ = 0x1000;
    }
}

inline UOp
TraceGenerator::next()
{
    UOp op;
    op.pc = pc_;

    // Barriers fire on a fixed instruction period so sibling threads
    // of a parallel job reach them in lockstep amounts of work.
    if (toSync_ != 0 && --toSync_ == 0) {
        toSync_ = profile_->syncInterval;
        op.cls = OpClass::Barrier;
        ++count_;
        advancePc(op);
        return op;
    }

    if (bbRemaining_ == 0) {
        // Terminate the basic block with a conditional branch.
        op.cls = OpClass::Branch;
        op.srcA = pickSrc(false);
        ++branchCount_;
        if ((rng_.next() >> 11) < predictableThreshold_) {
            // Predictable instances follow a fixed per-PC bias (the
            // strongly-biased loop and guard branches of real code,
            // which saturating counters learn perfectly); the biases
            // themselves are distributed to honour branchTakenRate.
            const std::uint64_t bias_hash =
                mix64(op.pc ^ seed_ ^ 0xb1a5b1a5ULL);
            op.taken = (bias_hash & 0xffff) < biasThreshold_;
        } else {
            op.taken = (rng_.next() >> 11) < takenThreshold_;
        }
        ++count_;
        advancePc(op);
        bbRemaining_ = blockLen(pc_);
        return op;
    }
    --bbRemaining_;

    const std::uint64_t u = rng_.next() >> 11;
    if (u < classThreshold_[0]) {
        op.cls = OpClass::FpAdd;
    } else if (u < classThreshold_[1]) {
        op.cls = OpClass::FpMult;
    } else if (u < classThreshold_[2]) {
        op.cls = OpClass::FpDiv;
    } else if (u < classThreshold_[3]) {
        op.cls = OpClass::IntMult;
    } else if (u < classThreshold_[4]) {
        op.cls = OpClass::Load;
    } else if (u < classThreshold_[5]) {
        op.cls = OpClass::Store;
    } else {
        op.cls = OpClass::IntAlu;
    }

    switch (op.cls) {
      case OpClass::FpAdd:
      case OpClass::FpMult:
      case OpClass::FpDiv:
        op.srcA = pickSrc(true);
        op.srcB = pickSrc(true);
        op.dst = allocDst(true);
        break;
      case OpClass::IntAlu:
      case OpClass::IntMult:
        op.srcA = pickSrc(false);
        op.srcB = pickSrc(false);
        op.dst = allocDst(false);
        break;
      case OpClass::Load: {
        bool serialized = false;
        op.addr = dataAddress(serialized);
        if (serialized) {
            // Pointer chase: the address depends on the previous chase
            // load, and the result feeds the next one.
            op.srcA = chaseReg;
            op.dst = chaseReg;
        } else {
            op.srcA = pickSrc(false); // address register
            const bool fp_dest = (rng_.next() >> 11) < fpLoadThreshold_;
            op.dst = allocDst(fp_dest);
        }
        break;
      }
      case OpClass::Store: {
        bool serialized = false;
        op.addr = dataAddress(serialized);
        op.srcA = pickSrc(false); // address register
        op.srcB = pickSrc(hasFp_ && (rng_.next() >> 11) < halfThreshold);
        break;
      }
      default:
        panic("unreachable op class");
    }

    ++count_;
    advancePc(op);
    return op;
}

} // namespace sos

#endif // SOS_TRACE_TRACE_GENERATOR_HH
