#include "prefetcher.hh"

#include "common/rng.hh"

namespace sos {

StridePrefetcher::StridePrefetcher(const PrefetcherParams &params)
    : params_(params)
{
    table_.resize(std::size_t{1} << params.tableBits);
    mask_ = table_.size() - 1;
}

void
StridePrefetcher::observe(std::uint16_t asid, std::uint64_t pc,
                          std::uint64_t addr,
                          std::vector<std::uint64_t> &out)
{
    if (!params_.enabled)
        return;

    const std::uint64_t tag =
        pc ^ (mix64(asid) | 1); // never 0: 0 marks an invalid entry
    Entry &entry = table_[(tag >> 2) & mask_];

    if (entry.tag != tag) {
        entry.tag = tag;
        entry.lastAddr = addr;
        entry.stride = 0;
        entry.confidence = 0;
        return;
    }

    const std::int64_t stride =
        static_cast<std::int64_t>(addr) -
        static_cast<std::int64_t>(entry.lastAddr);
    entry.lastAddr = addr;
    if (stride == 0)
        return;

    if (stride == entry.stride) {
        if (entry.confidence < 16)
            ++entry.confidence;
    } else {
        entry.stride = stride;
        entry.confidence = 1;
        return;
    }

    if (entry.confidence < params_.confidenceThreshold)
        return;

    for (int d = 1; d <= params_.degree; ++d) {
        const std::int64_t target =
            static_cast<std::int64_t>(addr) +
            stride * static_cast<std::int64_t>(d);
        if (target < 0)
            break;
        out.push_back(static_cast<std::uint64_t>(target));
        ++issued_;
    }
}

void
StridePrefetcher::reset()
{
    for (Entry &entry : table_)
        entry = Entry();
    issued_ = 0;
}

} // namespace sos
