#include "machine_engine.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"

namespace sos {

MachineEngine::MachineEngine(const MachineParams &params,
                             std::uint64_t timeslice_cycles,
                             const SampleWindows &sample)
    : machine_(std::make_unique<Machine>(params)),
      timeslice_(timeslice_cycles)
{
    SOS_ASSERT(timeslice_cycles > 0);
    cores_.reserve(static_cast<std::size_t>(machine_->numCores()));
    for (int k = 0; k < machine_->numCores(); ++k)
        cores_.emplace_back(machine_->core(k), sample);
}

MachineEngine::MachineEngine(const MachineEngine &other,
                             const JobMap &job_of)
    : machine_(std::make_unique<Machine>(*other.machine_)),
      timeslice_(other.timeslice_)
{
    cores_.reserve(other.cores_.size());
    for (int k = 0; k < machine_->numCores(); ++k) {
        const Core &from = other.cores_[static_cast<std::size_t>(k)];
        Core &core =
            cores_.emplace_back(machine_->core(k), from.sampler.sample());
        for (int slot = 0; slot < core.smt->params().numContexts; ++slot) {
            ThreadRef unit = from.slots[static_cast<std::size_t>(slot)];
            if (unit.job == nullptr)
                continue;
            unit.job = job_of(*unit.job);
            core.smt->rebindThread(slot, unit.job->binding(unit.thread));
            core.slots[static_cast<std::size_t>(slot)] = unit;
        }
    }
}

void
MachineEngine::evictJob(const Job *job)
{
    for (Core &core : cores_) {
        for (int slot = 0; slot < core.smt->params().numContexts; ++slot) {
            ThreadRef &unit = core.slots[static_cast<std::size_t>(slot)];
            if (unit.job != nullptr && unit.job == job) {
                core.smt->detachThread(slot);
                unit = ThreadRef{};
            }
        }
    }
}

std::vector<MachineEngine::Resident>
MachineEngine::residents() const
{
    std::vector<Resident> out;
    for (std::size_t k = 0; k < cores_.size(); ++k) {
        const Core &core = cores_[k];
        for (int slot = 0; slot < core.smt->params().numContexts; ++slot) {
            const ThreadRef &unit =
                core.slots[static_cast<std::size_t>(slot)];
            if (unit.job != nullptr)
                out.push_back(Resident{static_cast<int>(k), slot, unit});
        }
    }
    return out;
}

void
MachineEngine::runCore(Core &core, const std::vector<ThreadRef> &units,
                       PerfCounters &counters,
                       std::vector<std::uint64_t> &unit_retired,
                       SamplingTally &tally)
{
    const int num_slots = core.smt->params().numContexts;
    SOS_ASSERT(static_cast<int>(units.size()) <= num_slots,
               "more units than hardware contexts");
    for (std::size_t i = 0; i < units.size(); ++i) {
        for (std::size_t j = i + 1; j < units.size(); ++j) {
            SOS_ASSERT(!(units[i] == units[j]),
                       "a unit cannot occupy two contexts");
        }
    }

    // Swap out units that are leaving.
    for (int slot = 0; slot < num_slots; ++slot) {
        ThreadRef &resident = core.slots[static_cast<std::size_t>(slot)];
        if (resident.job == nullptr)
            continue;
        const bool staying = std::find(units.begin(), units.end(),
                                       resident) != units.end();
        if (!staying) {
            core.smt->detachThread(slot);
            resident = ThreadRef{};
        }
    }

    // Swap in units that are entering; record each unit's slot.
    std::vector<int> &unit_slot = unitSlotScratch_;
    unit_slot.assign(units.size(), -1);
    for (std::size_t u = 0; u < units.size(); ++u) {
        for (int slot = 0; slot < num_slots; ++slot) {
            if (core.slots[static_cast<std::size_t>(slot)] == units[u]) {
                unit_slot[u] = slot;
                break;
            }
        }
    }
    for (std::size_t u = 0; u < units.size(); ++u) {
        if (unit_slot[u] >= 0)
            continue;
        int free_slot = -1;
        for (int slot = 0; slot < num_slots; ++slot) {
            if (core.slots[static_cast<std::size_t>(slot)].job == nullptr) {
                free_slot = slot;
                break;
            }
        }
        SOS_ASSERT(free_slot >= 0, "no free context for incoming unit");
        const ThreadRef &unit = units[u];
        core.smt->attachThread(free_slot, unit.job->binding(unit.thread));
        core.slots[static_cast<std::size_t>(free_slot)] = unit;
        unit_slot[u] = free_slot;
    }

    core.sampler.run(timeslice_, counters, tally);

    unit_retired.resize(units.size(), 0);
    for (std::size_t u = 0; u < units.size(); ++u) {
        const auto slot = static_cast<std::size_t>(unit_slot[u]);
        const std::uint64_t retired = counters.slotRetired[slot];
        unit_retired[u] = retired;
        units[u].job->addRetired(retired);
    }
    // Credit residency once per distinct job in the running set.
    for (std::size_t u = 0; u < units.size(); ++u) {
        bool first = true;
        for (std::size_t v = 0; v < u; ++v) {
            if (units[v].job == units[u].job)
                first = false;
        }
        if (first)
            units[u].job->addResidentCycles(timeslice_);
    }
}

MachineEngine::SliceResult
MachineEngine::runSlice(const std::vector<std::vector<ThreadRef>> &units)
{
    static const std::vector<ThreadRef> idle;
    SliceResult slice;
    slice.perCore.resize(cores_.size());
    slice.unitRetired.resize(cores_.size());
    for (std::size_t k = 0; k < cores_.size(); ++k) {
        runCore(cores_[k], k < units.size() ? units[k] : idle,
                slice.perCore[k], slice.unitRetired[k], slice.sampling);
        slice.machine += slice.perCore[k];
    }
    slice.machine.cycles = timeslice_;
    return slice;
}

std::vector<MachineEngine::MachineRunResult>
MachineEngine::runSchedule(JobMix &mix, const MachineSchedule &schedule,
                           const std::vector<std::uint64_t> &checkpoints)
{
    SOS_ASSERT(schedule.valid());
    SOS_ASSERT(schedule.numCores() == machine_->numCores(),
               "schedule core count must match the machine");
    SOS_ASSERT(!checkpoints.empty(), "a run needs a length");

    // Checkpoint positions by ascending length: the loop below copies
    // its accumulators out as it passes each one.
    std::vector<std::size_t> order(checkpoints.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return checkpoints[a] < checkpoints[b];
                     });

    const auto cores = static_cast<std::size_t>(machine_->numCores());
    MachineRunResult result;
    result.perCore.resize(cores);
    result.jobRetired.assign(static_cast<std::size_t>(mix.numJobs()), 0);
    result.sliceIpc.reserve(checkpoints[order.back()]);
    result.sliceMixImbalance.reserve(checkpoints[order.back()]);

    std::vector<MachineRunResult> results(checkpoints.size());
    auto next = order.begin();
    std::vector<std::vector<ThreadRef>> units(cores);
    for (std::uint64_t t = 0;; ++t) {
        while (next != order.end() && checkpoints[*next] == t) {
            results[*next] = result;
            results[*next++].memory = machine_->memoryCounters();
        }
        if (next == order.end())
            break;
        for (std::size_t k = 0; k < cores; ++k) {
            units[k].clear();
            for (int unit_index :
                 schedule.coreSchedule(static_cast<int>(k)).tupleAt(t))
                units[k].push_back(mix.unit(unit_index));
        }
        const SliceResult slice = runSlice(units);
        for (std::size_t k = 0; k < cores; ++k) {
            result.total += slice.perCore[k];
            result.perCore[k] += slice.perCore[k];
            for (std::size_t u = 0; u < units[k].size(); ++u) {
                // Job ids are 1-based insertion order within the mix.
                const auto job_index =
                    static_cast<std::size_t>(units[k][u].job->id() - 1);
                result.jobRetired[job_index] += slice.unitRetired[k][u];
            }
        }
        result.sliceIpc.push_back(slice.machine.ipc());
        result.sliceMixImbalance.push_back(slice.machine.mixImbalance());
        result.cycles += timeslice_;
        result.sampling += slice.sampling;
    }
    return results;
}

} // namespace sos
