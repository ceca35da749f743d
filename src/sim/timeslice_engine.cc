#include "timeslice_engine.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sos {

TimesliceEngine::TimesliceEngine(SmtCore &core,
                                 std::uint64_t timeslice_cycles)
    : core_(core), timeslice_(timeslice_cycles),
      sampler_(core, SampleWindows{})
{
    SOS_ASSERT(timeslice_cycles > 0);
}

void
TimesliceEngine::setTimesliceCycles(std::uint64_t cycles)
{
    SOS_ASSERT(cycles > 0);
    timeslice_ = cycles;
}

void
TimesliceEngine::evictAll()
{
    for (int slot = 0; slot < core_.params().numContexts; ++slot) {
        if (slots_[static_cast<std::size_t>(slot)].occupied) {
            core_.detachThread(slot);
            slots_[static_cast<std::size_t>(slot)].occupied = false;
        }
    }
}

void
TimesliceEngine::evictJob(const Job *job)
{
    for (int slot = 0; slot < core_.params().numContexts; ++slot) {
        Slot &s = slots_[static_cast<std::size_t>(slot)];
        if (s.occupied && s.unit.job == job) {
            core_.detachThread(slot);
            s.occupied = false;
        }
    }
}

std::vector<std::pair<int, ThreadRef>>
TimesliceEngine::residentUnits() const
{
    std::vector<std::pair<int, ThreadRef>> out;
    for (int slot = 0; slot < core_.params().numContexts; ++slot) {
        const Slot &s = slots_[static_cast<std::size_t>(slot)];
        if (s.occupied)
            out.emplace_back(slot, s.unit);
    }
    return out;
}

void
TimesliceEngine::adoptResident(
    const std::vector<std::pair<int, ThreadRef>> &resident)
{
    for (int slot = 0; slot < core_.params().numContexts; ++slot) {
        SOS_ASSERT(!slots_[static_cast<std::size_t>(slot)].occupied,
                   "adoptResident needs a fresh engine");
    }
    for (const auto &[slot, unit] : resident) {
        SOS_ASSERT(core_.slotActive(slot),
                   "adopted slot carries no pipeline state");
        ThreadBinding binding;
        binding.gen = &unit.job->generator(unit.thread);
        binding.sync = unit.job->syncDomain();
        binding.syncIndex = unit.thread;
        binding.asid = unit.job->asid();
        core_.rebindThread(slot, binding);
        slots_[static_cast<std::size_t>(slot)] = {true, unit};
    }
}

TimesliceEngine::SliceResult
TimesliceEngine::runTimeslice(const std::vector<ThreadRef> &units)
{
    const int num_slots = core_.params().numContexts;
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
        Slot &s = slots_[static_cast<std::size_t>(slot)];
        if (!s.occupied)
            continue;
        const bool staying =
            std::find(units.begin(), units.end(), s.unit) != units.end();
        if (!staying) {
            core_.detachThread(slot);
            s.occupied = false;
        }
    }

    // Swap in units that are entering; record each unit's slot.
    std::vector<int> &unit_slot = unitSlotScratch_;
    unit_slot.assign(units.size(), -1);
    for (std::size_t u = 0; u < units.size(); ++u) {
        for (int slot = 0; slot < num_slots; ++slot) {
            const Slot &s = slots_[static_cast<std::size_t>(slot)];
            if (s.occupied && s.unit == units[u]) {
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
            if (!slots_[static_cast<std::size_t>(slot)].occupied) {
                free_slot = slot;
                break;
            }
        }
        SOS_ASSERT(free_slot >= 0, "no free context for incoming unit");
        const ThreadRef &unit = units[u];
        ThreadBinding binding;
        binding.gen = &unit.job->generator(unit.thread);
        binding.sync = unit.job->syncDomain();
        binding.syncIndex = unit.thread;
        binding.asid = unit.job->asid();
        core_.attachThread(free_slot, binding);
        slots_[static_cast<std::size_t>(free_slot)] = {true, unit};
        unit_slot[u] = free_slot;
    }

    SliceResult result;
    sampler_.run(timeslice_, result.counters, result.sampling);

    result.unitRetired.resize(units.size(), 0);
    for (std::size_t u = 0; u < units.size(); ++u) {
        const auto slot = static_cast<std::size_t>(unit_slot[u]);
        const std::uint64_t retired = result.counters.slotRetired[slot];
        result.unitRetired[u] = retired;
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
    return result;
}

} // namespace sos
