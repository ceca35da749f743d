#include "trace_generator.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace sos {

namespace {

/** Rng::probabilityThreshold(0.5). */
constexpr std::uint64_t halfThreshold = std::uint64_t{1} << 52;

} // namespace

TraceGenerator::TraceGenerator(const WorkloadProfile &profile,
                               std::uint64_t code_seed,
                               std::uint64_t data_seed)
    : profile_(&profile),
      rng_((data_seed == 0 ? code_seed : data_seed) ^
           0xabcddcba12344321ULL),
      seed_(code_seed)
{
    SOS_ASSERT(profile.avgBasicBlock >= 2.0,
               "basic blocks must hold at least a branch and one op");
    SOS_ASSERT(profile.syncInterval == 0 || profile.syncInterval >= 2,
               "sync interval of 1 would emit only barriers");
    fillGeometricTable(bbTable_, profile.avgBasicBlock, 2.0);
    fillGeometricTable(depTable_, profile.avgDepDistance, 1.0);
    pc_ = 0x1000;
    bbRemaining_ = blockLen(pc_);
    // First barrier fires on the call where count_ reaches the
    // interval, i.e. syncInterval + 1 calls from now.
    toSync_ = profile.syncInterval > 0 ? profile.syncInterval + 1 : 0;
    wsBytes_ = std::max<std::uint64_t>(profile.workingSetBytes, 64);
    for (std::size_t s = 0; s < streamPos_.size(); ++s)
        streamPos_[s] = wsBytes_ / streamPos_.size() * s;

    hotBytes_ = std::max<std::uint64_t>(profile.hotBytes, 64);
    codeBytes_ = std::max<std::uint64_t>(profile.codeBytes, blockBytes);
    numBlocks_ = codeBytes_ / blockBytes;
    // Running sums in class order: each threshold must see the same
    // rounded double as a chain of `u < (acc += f)` compares would.
    double acc = 0.0;
    const double fractions[] = {profile.fracFpAdd,   profile.fracFpMult,
                                profile.fracFpDiv,   profile.fracIntMult,
                                profile.fracLoad,    profile.fracStore};
    for (std::size_t c = 0; c < classThreshold_.size(); ++c) {
        acc += fractions[c];
        classThreshold_[c] = Rng::probabilityThreshold(acc);
    }
    predictableThreshold_ =
        Rng::probabilityThreshold(profile.branchPredictability);
    takenThreshold_ = Rng::probabilityThreshold(profile.branchTakenRate);
    biasThreshold_ = static_cast<std::uint32_t>(
        Rng::probabilityThreshold(profile.branchTakenRate, 16));
    streamThreshold_ = Rng::probabilityThreshold(profile.streamFraction);
    hotThreshold_ = Rng::probabilityThreshold(profile.streamFraction +
                                              profile.hotFraction);
    chaseThreshold_ = Rng::probabilityThreshold(profile.chaseFraction);
    fpLoadThreshold_ = Rng::probabilityThreshold(
        std::min(1.0, profile.fpFraction() * 1.5));
    hasFp_ = profile.fpFraction() > 0.0;
}

void
TraceGenerator::fillGeometricTable(
    std::array<std::uint16_t, geomTableSize> &table, double mean,
    double floor)
{
    // Precomputed inverse-CDF samples of a shifted geometric
    // distribution; sampling then costs one RNG draw and one load
    // instead of a logarithm (this sits on the simulator's innermost
    // path, several calls per micro-op).
    for (std::size_t i = 0; i < table.size(); ++i) {
        const double u =
            (static_cast<double>(i) + 0.5) / static_cast<double>(
                                                 table.size());
        const double value = std::max(floor, -mean * std::log(1.0 - u));
        table[i] = static_cast<std::uint16_t>(std::min(
            value, 60000.0));
    }
}

std::uint64_t
TraceGenerator::sampleTable(
    const std::array<std::uint16_t, geomTableSize> &table)
{
    return table[rng_.next() & (geomTableSize - 1)];
}

std::uint64_t
TraceGenerator::blockLen(std::uint64_t entry_pc) const
{
    // Deterministic per entry point: the synthetic CFG is a fixed
    // graph, so branch *sites* are stable addresses a real predictor
    // can train on, and their count scales with the code footprint.
    return bbTable_[mix64(entry_pc ^ seed_) & (geomTableSize - 1)];
}

std::uint8_t
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

std::uint8_t
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

std::uint64_t
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

void
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

UOp
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
