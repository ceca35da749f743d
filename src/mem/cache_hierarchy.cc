#include "cache_hierarchy.hh"

#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

namespace sos {

namespace {

void
validateCacheParams(const CacheParams &params)
{
    const auto bad = [&params](const std::string &what) {
        throw std::invalid_argument("cache '" + params.name +
                                    "': " + what);
    };
    const auto requirePositive = [&bad](std::uint32_t value,
                                        const char *field) {
        if (value == 0) {
            bad(std::string(field) + " must be positive, got " +
                std::to_string(value));
        }
    };
    requirePositive(params.sizeBytes, "sizeBytes");
    requirePositive(params.lineBytes, "lineBytes");
    requirePositive(params.assoc, "assoc");
    if (params.sizeBytes % params.lineBytes != 0) {
        bad("lineBytes must divide sizeBytes, got lineBytes=" +
            std::to_string(params.lineBytes) + " sizeBytes=" +
            std::to_string(params.sizeBytes));
    }
    const std::uint32_t lines = params.sizeBytes / params.lineBytes;
    if (lines % params.assoc != 0) {
        bad("assoc must divide the line count, got assoc=" +
            std::to_string(params.assoc) + " lines=" +
            std::to_string(lines));
    }
    // Cache indexes line offsets and sets by bit masks.
    if (!std::has_single_bit(params.lineBytes) ||
        !std::has_single_bit(lines / params.assoc)) {
        bad("lineBytes and the set count must be powers of 2, got "
            "lineBytes=" + std::to_string(params.lineBytes) + " sets=" +
            std::to_string(lines / params.assoc));
    }
}

} // namespace

void
validateMemParams(const MemParams &params)
{
    validateCacheParams(params.l1i);
    validateCacheParams(params.l1d);
    validateCacheParams(params.l2);
    validateCacheParams(params.itlb);
    validateCacheParams(params.dtlb);
    const auto requirePositive = [](std::uint32_t value,
                                    const char *field) {
        if (value == 0) {
            throw std::invalid_argument(
                "MemParams: " + std::string(field) +
                " must be positive, got " + std::to_string(value));
        }
    };
    requirePositive(params.l2HitLatency, "l2HitLatency");
    requirePositive(params.memLatency, "memLatency");
    const auto requireIn = [](int value, int lo, int hi, const char *field) {
        if (value < lo || value > hi) {
            throw std::invalid_argument(
                "MemParams: prefetch." + std::string(field) + " must be in [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "], got " +
                std::to_string(value));
        }
    };
    requireIn(params.prefetch.tableBits, 4, 20, "tableBits");
    requireIn(params.prefetch.degree, 1, 8, "degree");
    requireIn(params.prefetch.confidenceThreshold, 1,
              std::numeric_limits<int>::max(), "confidenceThreshold");
}

SharedL2::SharedL2(const MemParams &params, int num_cores)
    : l2_(params.l2)
{
    if (num_cores < 1)
        throw std::invalid_argument("a machine needs at least one core");
    counters_.resize(static_cast<std::size_t>(num_cores));
}

void
SharedL2::prefetchFill(int core, std::uint16_t asid, std::uint64_t addr)
{
    ++counters_.at(static_cast<std::size_t>(core)).prefetchFills;
    l2_.prefetchFill(asid, addr);
}

void
SharedL2::flush()
{
    l2_.flush();
}

CacheHierarchy::CacheHierarchy(const MemParams &params, SharedL2 &l2,
                               int core_id)
    : params_(params), coreId_(core_id), l2_(l2), l1i_(params.l1i),
      l1d_(params.l1d), itlb_(params.itlb), dtlb_(params.dtlb),
      prefetcher_(params.prefetch)
{
    if (core_id < 0 || core_id >= l2.numCores()) {
        throw std::invalid_argument(
            "memory view core id out of range for the shared L2");
    }
}

CacheHierarchy::CacheHierarchy(const CacheHierarchy &other, SharedL2 &l2)
    : params_(other.params_), coreId_(other.coreId_), l2_(l2),
      l1i_(other.l1i_), l1d_(other.l1d_), itlb_(other.itlb_),
      dtlb_(other.dtlb_), prefetcher_(other.prefetcher_),
      prefetchScratch_(other.prefetchScratch_)
{
    if (coreId_ >= l2.numCores()) {
        throw std::invalid_argument(
            "memory view core id out of range for the shared L2");
    }
}

void
CacheHierarchy::trainPrefetcher(std::uint16_t asid, std::uint64_t addr,
                                std::uint64_t pc)
{
    prefetchScratch_.clear();
    prefetcher_.observe(asid, pc, addr, prefetchScratch_);
    for (std::uint64_t target : prefetchScratch_) {
        // Hardware prefetchers drop requests that would require a
        // page walk.
        if (!dtlb_.probe(asid, target))
            continue;
        l2_.prefetchFill(coreId_, asid, target);
        l1d_.prefetchFill(asid, target);
    }
}

void
CacheHierarchy::flushAll()
{
    l1i_.flush();
    l1d_.flush();
    l2_.flush();
    itlb_.flush();
    dtlb_.flush();
}

} // namespace sos
