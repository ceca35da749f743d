#include "parallel_runner.hh"

#include <map>
#include <memory>
#include <string>

#include "common/logging.hh"
#include "metrics/weighted_speedup.hh"

namespace sos {

namespace {

/** Run one warm-up period, kept out of the sampling stats. */
void
warmUp(MachineEngine &engine, JobMix &mix, const MachineSchedule &warm)
{
    engine.setSampleRecording(false);
    engine.runSchedule(mix, warm, warm.periodTimeslices());
    engine.setSampleRecording(true);
}

/** The measured interval of one candidate on a warmed engine. */
ParallelScheduleRunner::ScheduleRun
measure(MachineEngine &engine, JobMix &mix,
        const MachineSchedule &schedule, std::uint64_t timeslices)
{
    ParallelScheduleRunner::ScheduleRun result;
    result.run = engine.runSchedule(mix, schedule, timeslices);
    result.ws = weightedSpeedup(mix, result.run.jobRetired,
                                result.run.cycles);
    return result;
}

} // namespace

ParallelScheduleRunner::ParallelScheduleRunner(int jobs)
    : owned_(std::make_unique<ThreadPool>(resolveJobs(jobs))),
      pool_(owned_.get())
{
}

ParallelScheduleRunner::ParallelScheduleRunner(ThreadPool &pool)
    : pool_(&pool)
{
}

std::vector<ParallelScheduleRunner::ScheduleRun>
ParallelScheduleRunner::runAll(
    const SweepSpec &sweep, const std::vector<MachineSchedule> &schedules,
    const std::function<std::uint64_t(std::size_t)> &timeslices) const
{
    SOS_ASSERT(sweep.makeMix, "sweep needs a mix factory");
    SOS_ASSERT(sweep.timesliceCycles > 0);

    if (!sweep.useSnapshot || !sweep.warmup) {
        return map<ScheduleRun>(schedules.size(), [&](std::size_t i) {
            JobMix mix = sweep.makeMix(i);
            // A private machine per task keeps sweep results a pure
            // function of the task index (DESIGN.md determinism
            // contract).
            Machine machine(sweep.machine);
            MachineEngine engine(machine, sweep.timesliceCycles,
                                 sweep.sample);
            if (sweep.warmup)
                warmUp(engine, mix, sweep.warmup(i));
            return measure(engine, mix, schedules[i], timeslices(i));
        });
    }

    // Shared-warmup fast path. Every task of a group warms the same
    // mix on an identical machine with the same warm-up schedule, so
    // its post-warmup state IS the group's snapshot (DESIGN.md §5c).
    // Take each group's snapshot from the experiment's store when an
    // earlier sweep warmed the same recipe, warm the rest -- in
    // parallel, the groups are independent -- then run each
    // candidate's measured interval on a private fork.
    std::vector<MachineSchedule> warmups;
    std::vector<std::size_t> leader;
    std::vector<std::size_t> group_of(schedules.size());
    std::map<std::string, std::size_t> group_index;
    for (std::size_t i = 0; i < schedules.size(); ++i) {
        MachineSchedule warm = sweep.warmup(i);
        const auto [it, inserted] =
            group_index.emplace(warm.label(), warmups.size());
        if (inserted) {
            warmups.push_back(std::move(warm));
            leader.push_back(i);
        }
        group_of[i] = it->second;
    }

    std::vector<std::shared_ptr<const MachineSnapshot>> snapshots(
        warmups.size());
    std::vector<WarmSnapshots::Recipe> recipes(warmups.size());
    std::vector<std::size_t> cold;
    for (std::size_t g = 0; g < warmups.size(); ++g) {
        if (sweep.snapshots != nullptr) {
            recipes[g] = WarmSnapshots::recipe(
                sweep.makeMix(leader[g]), sweep.machine,
                sweep.timesliceCycles, warmups[g].label(), sweep.sample);
            snapshots[g] = sweep.snapshots->find(recipes[g]);
        }
        if (snapshots[g] == nullptr)
            cold.push_back(g);
    }

    const auto warmed =
        map<std::shared_ptr<const MachineSnapshot>>(
            cold.size(), [&](std::size_t c) {
                const std::size_t g = cold[c];
                JobMix mix = sweep.makeMix(leader[g]);
                Machine machine(sweep.machine);
                MachineEngine engine(machine, sweep.timesliceCycles,
                                     sweep.sample);
                warmUp(engine, mix, warmups[g]);
                return std::make_shared<const MachineSnapshot>(
                    machine, mix, engine);
            });
    for (std::size_t c = 0; c < cold.size(); ++c) {
        snapshots[cold[c]] = warmed[c];
        if (sweep.snapshots != nullptr)
            sweep.snapshots->add(std::move(recipes[cold[c]]), warmed[c]);
    }

    return map<ScheduleRun>(schedules.size(), [&](std::size_t i) {
        MachineSnapshot::Fork fork(*snapshots[group_of[i]]);
        MachineEngine engine(fork.machine(), sweep.timesliceCycles,
                             sweep.sample);
        fork.adopt(engine);
        return measure(engine, fork.mix(), schedules[i], timeslices(i));
    });
}

} // namespace sos
