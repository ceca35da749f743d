/**
 * @file
 * Stream identity of TraceGenerator against a frozen copy of its
 * floating-point draw logic.
 *
 * The generator turns every probability test into an integer compare
 * on a precomputed threshold. That is a change of arithmetic only:
 * each library profile, at several seed pairs, must emit exactly the
 * stream the reference below emits, field for field. The reference
 * is the generator as it was before the thresholds, kept verbatim in
 * behaviour (uniform() < p, chance(p), running class sums, the
 * double-valued branch-bias compare and per-call max() clamps).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "trace/trace_generator.hh"
#include "trace/workload_library.hh"

namespace sos {
namespace {

/** The floating-point generator, frozen as the reference stream. */
class ReferenceGenerator
{
  public:
    ReferenceGenerator(const WorkloadProfile &profile,
                       std::uint64_t code_seed, std::uint64_t data_seed)
        : profile_(&profile),
          rng_((data_seed == 0 ? code_seed : data_seed) ^
               0xabcddcba12344321ULL),
          seed_(code_seed)
    {
        fillGeometricTable(bbTable_, profile.avgBasicBlock, 2.0);
        fillGeometricTable(depTable_, profile.avgDepDistance, 1.0);
        pc_ = 0x1000;
        bbRemaining_ = blockLen(pc_);
        toSync_ = profile.syncInterval > 0 ? profile.syncInterval + 1 : 0;
        wsBytes_ = std::max<std::uint64_t>(profile.workingSetBytes, 64);
        for (std::size_t s = 0; s < streamPos_.size(); ++s)
            streamPos_[s] = wsBytes_ / streamPos_.size() * s;
    }

    UOp
    next()
    {
        const WorkloadProfile &p = *profile_;
        UOp op;
        op.pc = pc_;
        if (toSync_ != 0 && --toSync_ == 0) {
            toSync_ = p.syncInterval;
            op.cls = OpClass::Barrier;
            advancePc(op);
            return op;
        }
        if (bbRemaining_ == 0) {
            op.cls = OpClass::Branch;
            op.srcA = pickSrc(false);
            if (rng_.chance(p.branchPredictability)) {
                const std::uint64_t bias_hash =
                    mix64(op.pc ^ seed_ ^ 0xb1a5b1a5ULL);
                op.taken = static_cast<double>(bias_hash & 0xffff) <
                           65536.0 * p.branchTakenRate;
            } else {
                op.taken = rng_.chance(p.branchTakenRate);
            }
            advancePc(op);
            bbRemaining_ = blockLen(pc_);
            return op;
        }
        --bbRemaining_;

        const double u = rng_.uniform();
        double acc = p.fracFpAdd;
        if (u < acc) {
            op.cls = OpClass::FpAdd;
        } else if (u < (acc += p.fracFpMult)) {
            op.cls = OpClass::FpMult;
        } else if (u < (acc += p.fracFpDiv)) {
            op.cls = OpClass::FpDiv;
        } else if (u < (acc += p.fracIntMult)) {
            op.cls = OpClass::IntMult;
        } else if (u < (acc += p.fracLoad)) {
            op.cls = OpClass::Load;
        } else if (u < (acc += p.fracStore)) {
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
                op.srcA = 31;
                op.dst = 31;
            } else {
                op.srcA = pickSrc(false);
                const bool fp_dest =
                    rng_.chance(std::min(1.0, p.fpFraction() * 1.5));
                op.dst = allocDst(fp_dest);
            }
            break;
          }
          default: { // Store
            bool serialized = false;
            op.addr = dataAddress(serialized);
            op.srcA = pickSrc(false);
            op.srcB = pickSrc(p.fpFraction() > 0.0 && rng_.chance(0.5));
            break;
          }
        }
        advancePc(op);
        return op;
    }

  private:
    static constexpr std::uint64_t blockBytes = 64;
    static constexpr std::size_t geomTableSize = 512;
    using Table = std::array<std::uint16_t, geomTableSize>;

    static void
    fillGeometricTable(Table &table, double mean, double floor)
    {
        for (std::size_t i = 0; i < table.size(); ++i) {
            const double u = (static_cast<double>(i) + 0.5) /
                             static_cast<double>(table.size());
            const double value =
                std::max(floor, -mean * std::log(1.0 - u));
            table[i] =
                static_cast<std::uint16_t>(std::min(value, 60000.0));
        }
    }

    std::uint64_t
    blockLen(std::uint64_t entry_pc) const
    {
        return bbTable_[mix64(entry_pc ^ seed_) & (geomTableSize - 1)];
    }

    std::uint8_t
    allocDst(bool fp)
    {
        if (fp) {
            const auto reg = static_cast<std::uint8_t>(
                NumIntArchRegs + (fpDstCursor_++ % 24));
            fpRing_[fpProduced_++ % fpRing_.size()] = reg;
            return reg;
        }
        const auto reg = static_cast<std::uint8_t>(intDstCursor_++ % 24);
        intRing_[intProduced_++ % intRing_.size()] = reg;
        return reg;
    }

    std::uint8_t
    pickSrc(bool fp)
    {
        const auto &ring = fp ? fpRing_ : intRing_;
        const std::uint32_t produced = fp ? fpProduced_ : intProduced_;
        if (produced == 0)
            return NoReg;
        std::uint64_t dist = depTable_[rng_.next() & (geomTableSize - 1)];
        dist = std::min<std::uint64_t>(
            dist, std::min<std::uint64_t>(produced, ring.size()));
        return ring[(produced - static_cast<std::uint32_t>(dist)) %
                    static_cast<std::uint32_t>(ring.size())];
    }

    std::uint64_t
    dataAddress(bool &serialized)
    {
        serialized = false;
        const WorkloadProfile &p = *profile_;
        const std::uint64_t ws = wsBytes_;
        const double u = rng_.uniform();
        std::uint64_t addr;
        if (u < p.streamFraction) {
            const std::size_t s = streamCursor_++ % streamPos_.size();
            std::uint64_t pos = streamPos_[s] + 8;
            if (pos >= ws)
                pos -= ws;
            streamPos_[s] = pos;
            addr = pos;
        } else if (u < p.streamFraction + p.hotFraction) {
            const std::uint64_t hot =
                std::max<std::uint64_t>(p.hotBytes, 64);
            addr = ws + rng_.below(hot);
        } else {
            addr = rng_.below(ws);
            serialized = rng_.chance(p.chaseFraction);
        }
        return addr & ~std::uint64_t{7};
    }

    void
    advancePc(const UOp &op)
    {
        const std::uint64_t code =
            std::max<std::uint64_t>(profile_->codeBytes, blockBytes);
        if (op.cls == OpClass::Branch && op.taken) {
            const std::uint64_t target_block =
                mix64(op.pc ^ seed_ ^ 0x5ca1ab1eULL) % (code / blockBytes);
            pc_ = 0x1000 + target_block * blockBytes;
        } else {
            pc_ += 4;
            if (pc_ >= 0x1000 + code)
                pc_ = 0x1000;
        }
    }

    Table bbTable_{};
    Table depTable_{};
    const WorkloadProfile *profile_;
    Rng rng_;
    std::uint64_t seed_;
    std::uint64_t pc_;
    std::uint64_t bbRemaining_;
    std::uint64_t toSync_ = 0;
    std::uint64_t wsBytes_ = 64;
    std::array<std::uint8_t, 32> intRing_{};
    std::array<std::uint8_t, 32> fpRing_{};
    std::uint32_t intProduced_ = 0;
    std::uint32_t fpProduced_ = 0;
    std::uint32_t intDstCursor_ = 0;
    std::uint32_t fpDstCursor_ = 0;
    std::array<std::uint64_t, 4> streamPos_{};
    std::uint32_t streamCursor_ = 0;
};

/** Run both generators for @p uops and stop at the first difference. */
void
expectSameStream(const WorkloadProfile &profile, std::uint64_t code_seed,
                 std::uint64_t data_seed, std::uint64_t uops)
{
    TraceGenerator gen(profile, code_seed, data_seed);
    ReferenceGenerator ref(profile, code_seed, data_seed);
    for (std::uint64_t i = 0; i < uops; ++i) {
        const UOp a = gen.next();
        const UOp b = ref.next();
        const bool same = a.pc == b.pc && a.addr == b.addr &&
                          a.cls == b.cls && a.srcA == b.srcA &&
                          a.srcB == b.srcB && a.dst == b.dst &&
                          a.taken == b.taken;
        ASSERT_TRUE(same) << profile.name << " seeds " << code_seed
                          << "/" << data_seed << " differ at uop " << i;
    }
}

/** Code/data seed pairs: sequential jobs (data 0) and sibling threads. */
const std::vector<std::pair<std::uint64_t, std::uint64_t>> seedPairs = {
    {1, 0}, {42, 0}, {0x7ace, 0}, {7, 8}, {7, 0x5eed5eed}, {~0ULL, 3}};

TEST(TraceStream, LibraryProfilesMatchFloatingPointReference)
{
    const WorkloadLibrary &library = WorkloadLibrary::instance();
    for (const std::string &name : library.names()) {
        for (const auto &[code, data] : seedPairs)
            expectSameStream(library.get(name), code, data, 200000);
    }
}

TEST(TraceStream, EdgeProbabilitiesMatchReference)
{
    // Probabilities at and beyond the ends of [0, 1], sums that pass
    // 1, a NaN and tiny values: the thresholds must clamp exactly as
    // the floating-point compares did.
    std::vector<WorkloadProfile> profiles(4);
    profiles[0].name = "never";
    profiles[0].branchTakenRate = 0.0;
    profiles[0].branchPredictability = 0.0;
    profiles[0].streamFraction = 0.0;
    profiles[0].hotFraction = 0.0;
    profiles[0].chaseFraction = 0.0;
    profiles[0].hotBytes = 0;
    profiles[0].codeBytes = 0;
    profiles[1].name = "always";
    profiles[1].branchTakenRate = 1.0;
    profiles[1].branchPredictability = 1.0;
    profiles[1].streamFraction = 0.7;
    profiles[1].hotFraction = 0.7;
    profiles[1].chaseFraction = 1.5;
    profiles[1].fracFpAdd = 0.5;
    profiles[1].fracLoad = 0.6;
    profiles[2].name = "outside";
    profiles[2].branchTakenRate = -0.25;
    profiles[2].branchPredictability = 0.5;
    profiles[2].streamFraction = std::numeric_limits<double>::quiet_NaN();
    profiles[2].chaseFraction = 1e-300;
    profiles[3].name = "fine";
    profiles[3].branchTakenRate = 0.1 + 0.2; // not a dyadic fraction
    profiles[3].branchPredictability = 1.0 / 3.0;
    profiles[3].fracFpMult = 0.1;
    profiles[3].fracFpDiv = 0.2;
    profiles[3].fracIntMult = 0.3;
    profiles[3].chaseFraction = 0.5;
    profiles[3].syncInterval = 17;
    for (const WorkloadProfile &profile : profiles) {
        for (const auto &[code, data] : seedPairs)
            expectSameStream(profile, code, data, 50000);
    }
}

} // namespace
} // namespace sos
