#include "machine_engine.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"

namespace sos {

MachineEngine::MachineEngine(Machine &machine,
                             std::uint64_t timeslice_cycles,
                             const SampleWindows &sample)
    : machine_(machine), timeslice_(timeslice_cycles)
{
    SOS_ASSERT(timeslice_cycles > 0);
    engines_.reserve(static_cast<std::size_t>(machine.numCores()));
    for (int k = 0; k < machine.numCores(); ++k) {
        engines_.emplace_back(machine.core(k), timeslice_cycles);
        engines_.back().setSampling(sample);
    }
}

void
MachineEngine::evictAll()
{
    for (TimesliceEngine &engine : engines_)
        engine.evictAll();
}

void
MachineEngine::evictJob(const Job *job)
{
    for (TimesliceEngine &engine : engines_)
        engine.evictJob(job);
}

MachineEngine::SliceResult
MachineEngine::runSlice(const std::vector<std::vector<ThreadRef>> &units)
{
    static const std::vector<ThreadRef> idle;
    SliceResult slice;
    slice.cores.reserve(engines_.size());
    for (std::size_t k = 0; k < engines_.size(); ++k) {
        slice.cores.push_back(
            engines_[k].runTimeslice(k < units.size() ? units[k] : idle));
        slice.machine += slice.cores.back().counters;
        slice.sampling += slice.cores.back().sampling;
    }
    slice.machine.cycles = timeslice_;
    return slice;
}

std::vector<MachineEngine::MachineRunResult>
MachineEngine::runSchedule(JobMix &mix, const MachineSchedule &schedule,
                           const std::vector<std::uint64_t> &checkpoints)
{
    SOS_ASSERT(schedule.valid());
    SOS_ASSERT(schedule.numCores() == machine_.numCores(),
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

    const auto cores = static_cast<std::size_t>(machine_.numCores());
    MachineRunResult result;
    result.perCore.resize(cores);
    result.jobRetired.assign(static_cast<std::size_t>(mix.numJobs()), 0);
    result.sliceIpc.reserve(checkpoints[order.back()]);
    result.sliceMixImbalance.reserve(checkpoints[order.back()]);

    std::vector<MachineRunResult> results(checkpoints.size());
    auto next = order.begin();
    std::vector<std::vector<ThreadRef>> units(cores);
    for (std::uint64_t t = 0;; ++t) {
        while (next != order.end() && checkpoints[*next] == t)
            results[*next++] = result;
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
            const TimesliceEngine::SliceResult &core = slice.cores[k];
            result.total += core.counters;
            result.perCore[k] += core.counters;
            for (std::size_t u = 0; u < units[k].size(); ++u) {
                // Job ids are 1-based insertion order within the mix.
                const auto job_index =
                    static_cast<std::size_t>(units[k][u].job->id() - 1);
                result.jobRetired[job_index] += core.unitRetired[u];
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
