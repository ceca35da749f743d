#include "parallel_runner.hh"

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/logging.hh"
#include "metrics/weighted_speedup.hh"

namespace sos {

namespace {

/** The measured intervals of one candidate on a warmed engine. */
std::vector<ParallelScheduleRunner::ScheduleRun>
measure(MachineEngine &engine, JobMix &mix,
        const MachineSchedule &schedule,
        const std::vector<std::uint64_t> &checkpoints)
{
    std::vector<ParallelScheduleRunner::ScheduleRun> results;
    results.reserve(checkpoints.size());
    for (MachineEngine::MachineRunResult &run :
         engine.runSchedule(mix, schedule, checkpoints)) {
        const double ws =
            weightedSpeedup(mix, run.jobRetired, run.cycles);
        results.push_back({std::move(run), ws});
    }
    return results;
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

std::vector<std::vector<ParallelScheduleRunner::ScheduleRun>>
ParallelScheduleRunner::runAll(
    const SweepSpec &sweep, const std::vector<MachineSchedule> &schedules,
    const std::function<std::vector<std::uint64_t>(std::size_t)>
        &checkpoints) const
{
    SOS_ASSERT(sweep.makeMix, "sweep needs a mix factory");
    SOS_ASSERT(sweep.timesliceCycles > 0);
    std::vector<std::vector<ScheduleRun>> out(schedules.size());

    if (!sweep.warmup) {
        pool_->run(schedules.size(), [&](std::size_t i) {
            JobMix mix = sweep.makeMix(i);
            // A private machine per task keeps sweep results a pure
            // function of the task index (DESIGN.md determinism
            // contract).
            MachineEngine engine(sweep.machine, sweep.timesliceCycles,
                                 sweep.sample);
            out[i] = measure(engine, mix, schedules[i], checkpoints(i));
        });
        return out;
    }

    // Every task of a group warms the same mix on an identical machine
    // with the same warm-up schedule, so its post-warmup state IS the
    // group's warm engine (DESIGN.md §5c). Warm each group once -- in
    // parallel, the groups are independent -- then run each
    // candidate's measured interval on a private fork of it.
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

    struct Warm
    {
        JobMix mix;
        MachineEngine engine;
    };
    std::vector<std::optional<Warm>> warm(warmups.size());
    pool_->run(warmups.size(), [&](std::size_t g) {
        Warm &group = warm[g].emplace(
            Warm{sweep.makeMix(leader[g]),
                 MachineEngine(sweep.machine, sweep.timesliceCycles,
                               sweep.sample)});
        // One warm-up period; its sampling tally is dropped.
        group.engine.runSchedule(group.mix, warmups[g],
                                 {warmups[g].periodTimeslices()});
    });

    pool_->run(schedules.size(), [&](std::size_t i) {
        const Warm &group = *warm[group_of[i]];
        JobMix mix = group.mix;
        // Job ids are 1-based insertion order within a mix.
        MachineEngine engine(group.engine, [&mix](const Job &job) {
            return &mix.job(static_cast<int>(job.id()) - 1);
        });
        out[i] = measure(engine, mix, schedules[i], checkpoints(i));
    });
    return out;
}

} // namespace sos
