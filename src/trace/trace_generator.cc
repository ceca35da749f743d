#include "trace_generator.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace sos {

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

} // namespace sos
