#include "cache.hh"

#include "common/logging.hh"

namespace sos {

namespace {

bool
isPow2(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

} // namespace

Cache::Cache(const CacheParams &params) : params_(params)
{
    SOS_ASSERT(isPow2(params.lineBytes), "line size must be a power of 2");
    SOS_ASSERT(params.assoc > 0);
    SOS_ASSERT(params.sizeBytes % (params.lineBytes * params.assoc) == 0,
               "capacity must be a whole number of sets");
    numSets_ = params.sizeBytes / params.lineBytes / params.assoc;
    SOS_ASSERT(numSets_ > 0 && isPow2(numSets_),
               "set count must be a power of 2");
    lineShift_ = static_cast<std::uint32_t>(
        std::countr_zero(params.lineBytes));
    ways_.resize(static_cast<std::size_t>(numSets_) * params.assoc);
}

void
Cache::flush()
{
    for (Way &way : ways_)
        way.valid = false;
}

void
Cache::flushAsid(std::uint16_t asid)
{
    for (Way &way : ways_) {
        if (way.valid && (way.tag >> 48) == asid)
            way.valid = false;
    }
}

std::uint64_t
Cache::residentLines() const
{
    std::uint64_t n = 0;
    for (const Way &way : ways_)
        n += way.valid ? 1 : 0;
    return n;
}

void
Cache::resetStats()
{
    hits_ = 0;
    misses_ = 0;
}

} // namespace sos
