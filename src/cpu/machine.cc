#include "machine.hh"

#include <stdexcept>
#include <string>

#include "stats/stats.hh"

namespace sos {

bool
MachineParams::homogeneous() const
{
    for (int k = 0; k < numCores; ++k) {
        if (!(coreParams(k) == coreParams(0)) ||
            !(memParams(k) == memParams(0))) {
            return false;
        }
    }
    return true;
}

std::vector<int>
MachineParams::coreClasses() const
{
    std::vector<int> ids(static_cast<std::size_t>(numCores), -1);
    std::vector<int> representatives; // core index of each class
    for (int k = 0; k < numCores; ++k) {
        for (std::size_t c = 0; c < representatives.size(); ++c) {
            const int rep = representatives[c];
            if (coreParams(k) == coreParams(rep) &&
                memParams(k) == memParams(rep)) {
                ids[static_cast<std::size_t>(k)] = static_cast<int>(c);
                break;
            }
        }
        if (ids[static_cast<std::size_t>(k)] < 0) {
            ids[static_cast<std::size_t>(k)] =
                static_cast<int>(representatives.size());
            representatives.push_back(k);
        }
    }
    return ids;
}

MachineParams
homogeneousMachine(const CoreParams &core, const MemParams &mem,
                   int num_cores)
{
    MachineParams params;
    params.numCores = num_cores;
    params.core = core;
    params.mem = mem;
    return params;
}

void
validateMachineParams(const MachineParams &params)
{
    if (params.numCores < 1 || params.numCores > MaxCores) {
        throw std::invalid_argument(
            "MachineParams: numCores must be in [1, " +
            std::to_string(MaxCores) + "], got " +
            std::to_string(params.numCores));
    }
    const auto checkSize = [&params](std::size_t size,
                                     const char *field) {
        if (size != 0 &&
            size != static_cast<std::size_t>(params.numCores)) {
            throw std::invalid_argument(
                "MachineParams: " + std::string(field) +
                " must be empty or hold one entry per core (" +
                std::to_string(params.numCores) + "), got " +
                std::to_string(size));
        }
    };
    checkSize(params.cores.size(), "cores");
    checkSize(params.coreMem.size(), "coreMem");
    validateCoreParams(params.core);
    validateMemParams(params.mem);
    for (int k = 0; k < params.numCores; ++k) {
        try {
            validateCoreParams(params.coreParams(k));
            validateMemParams(params.memParams(k));
        } catch (const std::invalid_argument &err) {
            throw std::invalid_argument(
                "core " + std::to_string(k) + ": " + err.what());
        }
    }
}

Machine::Machine(const MachineParams &params)
    : params_((validateMachineParams(params), params)),
      l2_(params.mem, params.numCores)
{
    views_.reserve(static_cast<std::size_t>(params.numCores));
    cores_.reserve(static_cast<std::size_t>(params.numCores));
    for (int k = 0; k < params.numCores; ++k) {
        views_.push_back(std::make_unique<CacheHierarchy>(
            params.memParams(k), l2_, k));
        cores_.push_back(std::make_unique<SmtCore>(
            params.coreParams(k), *views_.back()));
    }
}

Machine::Machine(const CoreParams &core, const MemParams &mem,
                 int num_cores)
    : Machine(homogeneousMachine(core, mem, num_cores))
{
}

Machine::Machine(const Machine &other)
    : params_(other.params_), l2_(other.l2_)
{
    views_.reserve(other.views_.size());
    cores_.reserve(other.cores_.size());
    for (int k = 0; k < other.numCores(); ++k) {
        views_.push_back(
            std::make_unique<CacheHierarchy>(other.memory(k), l2_));
        cores_.push_back(
            std::make_unique<SmtCore>(other.core(k), *views_.back()));
    }
}

MemoryCounters
Machine::memoryCounters() const
{
    const auto counts = [](const Cache &cache) {
        return CacheCounts{cache.hits(), cache.misses()};
    };
    MemoryCounters out;
    out.l2 = counts(l2_.cache());
    out.cores.reserve(views_.size());
    for (int k = 0; k < numCores(); ++k) {
        const CacheHierarchy &view = *views_[static_cast<std::size_t>(k)];
        out.cores.push_back({counts(view.l1i()), counts(view.l1d()),
                             counts(view.itlb()), counts(view.dtlb()),
                             view.prefetcher().issued(),
                             l2_.coreCounters(k)});
    }
    return out;
}

namespace {

/** Hits, misses and the miss rate of level @p name under @p parent. */
void
registerCache(const stats::Group &parent, const std::string &name,
              const CacheCounts &counts)
{
    const stats::Group group = parent.group(name);
    group.scalar("hits", name + " lifetime hits") = counts.hits;
    group.scalar("misses", name + " lifetime misses") = counts.misses;
    const double total = static_cast<double>(counts.hits + counts.misses);
    group.value("miss_rate", name + " lifetime miss rate") =
        total == 0.0 ? 0.0 : static_cast<double>(counts.misses) / total;
}

} // namespace

void
MemoryCounters::registerStats(const stats::Group &group) const
{
    registerCache(group, "l2", l2);
    std::uint64_t l2_misses = 0;
    for (const Core &core : cores)
        l2_misses += core.l2.misses;
    for (std::size_t k = 0; k < cores.size(); ++k) {
        const Core &core = cores[k];
        const stats::Group core_group =
            group.group("core" + std::to_string(k));
        registerCache(core_group, "l1i", core.l1i);
        registerCache(core_group, "l1d", core.l1d);
        registerCache(core_group, "itlb", core.itlb);
        registerCache(core_group, "dtlb", core.dtlb);
        core_group.group("prefetcher").value("issued", "prefetches issued") =
            static_cast<double>(core.prefetchesIssued);

        const stats::Group l2 = core_group.group("l2_contention");
        l2.scalar("accesses", "demand L2 lookups from this core") =
            core.l2.accesses;
        l2.scalar("hits", "shared-L2 hits of this core") = core.l2.hits;
        l2.scalar("misses", "shared-L2 misses of this core") =
            core.l2.misses;
        l2.scalar("prefetch_fills", "prefetch fills issued by this core") =
            core.l2.prefetchFills;
        l2.value("miss_share",
                 "this core's share of all shared-L2 misses") =
            l2_misses == 0 ? 0.0
                           : static_cast<double>(core.l2.misses) /
                                 static_cast<double>(l2_misses);
    }
}

} // namespace sos
