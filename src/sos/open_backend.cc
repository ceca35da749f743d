#include "sos/open_backend.hh"

#include <algorithm>
#include <numeric>
#include <set>
#include <sstream>
#include <utility>

#include "common/logging.hh"
#include "cpu/sampling.hh"
#include "metrics/weighted_speedup.hh"

namespace sos {

namespace {

/** Local-position schedule for a group of @p size jobs on an
 *  @p level-context core (the open system always swaps fully). */
Schedule
groupSchedule(int size, int level)
{
    if (size <= 0)
        return Schedule();
    if (size <= level) {
        Partition whole(1);
        for (int i = 0; i < size; ++i)
            whole[0].push_back(i);
        return Schedule::fromPartition(whole);
    }
    std::vector<int> order(static_cast<std::size_t>(size));
    std::iota(order.begin(), order.end(), 0);
    return Schedule::fromRotation(order, level, level);
}

/** Thread units of per-core pool-index tuples. */
std::vector<std::vector<ThreadRef>>
unitsOf(const std::vector<Job *> &pool,
        const std::vector<std::vector<int>> &core_tuples)
{
    std::vector<std::vector<ThreadRef>> units(core_tuples.size());
    for (std::size_t k = 0; k < core_tuples.size(); ++k)
        for (int index : core_tuples[k])
            units[k].push_back(
                ThreadRef{pool.at(static_cast<std::size_t>(index)), 0});
    return units;
}

} // namespace

std::vector<std::vector<int>>
OpenCandidate::tuplesAt(std::uint64_t t) const
{
    std::vector<std::vector<int>> tuples(groups.size());
    for (std::size_t k = 0; k < groups.size(); ++k) {
        if (groups[k].empty() || !schedules[k].valid())
            continue;
        for (int position : schedules[k].tupleAt(t))
            tuples[k].push_back(
                groups[k][static_cast<std::size_t>(position)]);
    }
    return tuples;
}

EngineBackend::EngineBackend(const MachineParams &params,
                             std::uint64_t timeslice_cycles,
                             const SampleWindows &sample)
    : numCores_(params.numCores),
      level_(params.coreParams(0).numContexts),
      classes_(params.coreClasses()),
      live_(params, timeslice_cycles, sample)
{
    SOS_ASSERT(numCores_ >= 1 && level_ >= 1,
               "backend needs at least one core and one context");
}

std::uint64_t
EngineBackend::windowSlices(int num_jobs) const
{
    const auto sweeps = 2 * static_cast<std::uint64_t>(
                                (num_jobs + capacity() - 1) / capacity());
    if (numCores_ > 1)
        return sweeps;
    return std::min<std::uint64_t>(
        ScheduleSpace(num_jobs, level_, level_).periodTimeslices(),
        sweeps);
}

OpenCandidate
EngineBackend::trivialCandidate(int num_jobs) const
{
    SOS_ASSERT(num_jobs <= capacity(),
               "trivial coschedule needs the pool to fit the machine");
    std::vector<int> everyone(static_cast<std::size_t>(num_jobs));
    std::iota(everyone.begin(), everyone.end(), 0);

    OpenCandidate candidate;
    candidate.groups = spread(everyone);
    std::ostringstream label, key;
    for (std::size_t k = 0; k < candidate.groups.size(); ++k) {
        const auto &group = candidate.groups[k];
        candidate.schedules.push_back(
            groupSchedule(static_cast<int>(group.size()), level_));
        if (k > 0)
            label << '|';
        label << groupLabel(group);
        key << groupLabel(group) << ';';
    }
    candidate.label = label.str();
    candidate.key = key.str();
    return candidate;
}

std::vector<std::vector<int>>
EngineBackend::spread(const std::vector<int> &chosen) const
{
    SOS_ASSERT(static_cast<int>(chosen.size()) <= capacity(),
               "cannot spread more jobs than contexts");
    std::vector<std::vector<int>> groups(
        static_cast<std::size_t>(numCores_));
    std::size_t cursor = 0;
    for (int k = 0; k < numCores_ && cursor < chosen.size(); ++k)
        for (int c = 0; c < level_ && cursor < chosen.size(); ++c)
            groups[static_cast<std::size_t>(k)].push_back(
                chosen[cursor++]);
    return groups;
}

PerfCounters
EngineBackend::runLiveSlice(const std::vector<Job *> &pool,
                            const std::vector<std::vector<int>>
                                &core_tuples)
{
    const MachineEngine::SliceResult slice =
        live_.runSlice(unitsOf(pool, core_tuples));
    recordSampling(slice.sampling);
    return slice.machine;
}

std::vector<ScheduleProfile>
EngineBackend::profileCandidates(
    const std::vector<Job *> &pool,
    const std::vector<OpenCandidate> &candidates,
    std::uint64_t window, std::uint64_t offset, ThreadPool &workers)
{
    forks_.clear();
    forks_.resize(candidates.size());
    std::vector<ScheduleProfile> profiles(candidates.size());
    workers.run(candidates.size(), [&](std::size_t i) {
        std::vector<std::unique_ptr<Job>> jobs;
        std::vector<Job *> fork_pool;
        std::vector<std::uint64_t> before;
        for (const Job *job : pool) {
            jobs.push_back(std::make_unique<Job>(*job));
            fork_pool.push_back(jobs.back().get());
            before.push_back(job->retired());
        }
        // Each resident unit's job maps to its copy by pool position.
        Fork &fork = forks_[i].emplace(Fork{
            std::move(jobs),
            MachineEngine(live_, [&](const Job &job) {
                const auto position = static_cast<std::size_t>(
                    std::find(pool.begin(), pool.end(), &job) -
                    pool.begin());
                SOS_ASSERT(position < pool.size(),
                           "resident job missing from the pool");
                return fork_pool[position];
            })});

        ScheduleProfile &profile = profiles[i];
        profile.label = candidates[i].label;
        for (std::uint64_t s = 0; s < window; ++s) {
            const MachineEngine::SliceResult slice =
                fork.engine.runSlice(unitsOf(
                    fork_pool, candidates[i].tuplesAt(offset + s)));
            recordSampling(slice.sampling);
            profile.counters += slice.machine;
            profile.sliceIpc.push_back(slice.machine.ipc());
            profile.sliceMixImbalance.push_back(
                slice.machine.mixImbalance());
        }

        std::vector<JobProgress> progress;
        progress.reserve(fork.jobs.size());
        for (std::size_t j = 0; j < fork.jobs.size(); ++j)
            progress.push_back(
                JobProgress{fork.jobs[j]->retired() - before[j],
                            fork.jobs[j]->soloIpc});
        profile.sampleWs =
            weightedSpeedup(progress, window * timesliceCycles());
    });
    return profiles;
}

std::vector<std::unique_ptr<Job>>
EngineBackend::adoptFork(std::size_t index)
{
    SOS_ASSERT(index < forks_.size() && forks_[index],
               "adopting an unknown fork");
    Fork &winner = *forks_[index];
    live_ = std::move(winner.engine);
    std::vector<std::unique_ptr<Job>> jobs = std::move(winner.jobs);
    forks_.clear();
    return jobs;
}

namespace {

/** One core: distinct Js(num_jobs, level, level) schedules. */
std::vector<OpenCandidate>
drawSchedules(int num_jobs, int count, int level, Rng &rng)
{
    const ScheduleSpace space(num_jobs, level, level);
    std::vector<Schedule> schedules = space.sample(count, rng);

    std::vector<int> everyone(static_cast<std::size_t>(num_jobs));
    std::iota(everyone.begin(), everyone.end(), 0);
    std::vector<OpenCandidate> candidates;
    candidates.reserve(schedules.size());
    for (Schedule &schedule : schedules) {
        OpenCandidate candidate;
        candidate.groups = {everyone};
        candidate.label = schedule.label();
        candidate.key = schedule.key();
        candidate.schedules = {std::move(schedule)};
        candidates.push_back(std::move(candidate));
    }
    return candidates;
}

/**
 * A CMP: random per-core group assignments over cores of the given
 * equivalence @p classes (one entry per core).
 */
std::vector<OpenCandidate>
drawPlacements(int num_jobs, int count, int level,
               const std::vector<int> &classes, Rng &rng)
{
    const int cores = static_cast<int>(classes.size());
    std::vector<OpenCandidate> candidates;
    std::set<std::string> seen;
    // Rejection-sample distinct group assignments; the space can be
    // smaller than the ask near the capacity boundary.
    const int max_attempts = count * 8 + 8;
    for (int attempt = 0;
         attempt < max_attempts &&
         static_cast<int>(candidates.size()) < count;
         ++attempt) {
        std::vector<int> perm(static_cast<std::size_t>(num_jobs));
        std::iota(perm.begin(), perm.end(), 0);
        for (std::size_t i = perm.size() - 1; i > 0; --i)
            std::swap(perm[i],
                      perm[rng.below(static_cast<std::uint64_t>(i) +
                                     1)]);

        // Near-equal contiguous split of the permutation.
        const int base = num_jobs / cores;
        const int extra = num_jobs % cores;
        OpenCandidate candidate;
        std::size_t cursor = 0;
        for (int k = 0; k < cores; ++k) {
            const int take = base + (k < extra ? 1 : 0);
            std::vector<int> group(
                perm.begin() + static_cast<std::ptrdiff_t>(cursor),
                perm.begin() +
                    static_cast<std::ptrdiff_t>(cursor) + take);
            cursor += static_cast<std::size_t>(take);
            candidate.schedules.push_back(groupSchedule(take, level));
            candidate.groups.push_back(std::move(group));
        }

        // Canonical key: per-core identity strings, sorted so that
        // permuting identical cores does not create a "new"
        // candidate. On a heterogeneous machine each part carries the
        // core's equivalence class, so moving a group across classes
        // changes the key (the placement matters there).
        const bool hetero =
            std::any_of(classes.begin(), classes.end(),
                        [](int c) { return c != 0; });
        std::vector<std::string> parts;
        std::ostringstream label;
        for (std::size_t k = 0; k < candidate.groups.size(); ++k) {
            // Partition groups coschedule everyone at once, so member
            // order is irrelevant; rotating groups are identified by
            // their rotation order.
            std::vector<int> members = candidate.groups[k];
            if (static_cast<int>(members.size()) <= level)
                std::sort(members.begin(), members.end());
            std::string part = groupLabel(members) +
                               candidate.schedules[k].key();
            if (hetero)
                part = std::to_string(classes[k]) + ':' + part;
            parts.push_back(std::move(part));
            if (k > 0)
                label << '|';
            label << groupLabel(candidate.groups[k]);
        }
        std::sort(parts.begin(), parts.end());
        std::ostringstream key;
        for (const std::string &part : parts)
            key << part << ';';
        candidate.key = key.str();
        candidate.label = label.str();
        if (!seen.insert(candidate.key).second)
            continue;
        candidates.push_back(std::move(candidate));
    }
    SOS_ASSERT(!candidates.empty(),
               "machine backend drew no candidates");
    return candidates;
}

} // namespace

std::vector<OpenCandidate>
EngineBackend::drawCandidates(int num_jobs, int count, Rng &rng) const
{
    return numCores_ == 1
               ? drawSchedules(num_jobs, count, level_, rng)
               : drawPlacements(num_jobs, count, level_, classes_, rng);
}

} // namespace sos
