#include "sos/open_run.hh"

#include <algorithm>

#include "common/logging.hh"
#include "stats/trace.hh"

namespace sos {

OpenRun::OpenRun(EngineBackend &backend, const Config &config,
                 OpenPolicy policy, JobFactory make_job,
                 ThreadPool &workers, stats::EventTrace *events)
    : backend_(backend), config_(config), policy_(policy),
      makeJob_(std::move(make_job)),
      events_(policy == OpenPolicy::Sos ? events : nullptr),
      timeslice_(backend.timesliceCycles()),
      capacity_(backend.capacity()), rng_(config.seed),
      resample_(makeResamplePolicy(config.resamplePolicy,
                                   config.baseIntervalCycles)),
      predictor_(makePredictor(config.predictor, config.modelPath)),
      workers_(workers)
{
}

void
OpenRun::inject(std::uint64_t arrival_cycle, int index)
{
    SOS_ASSERT(pending_.empty() ||
                   pending_.back().first <= arrival_cycle,
               "arrival cycles must be nondecreasing");
    SOS_ASSERT(phase_ != SosKernel::Phase::Done,
               "a finalized run accepts no arrivals");
    queue_.push(EventKind::JobArrival, arrival_cycle, index);
    pending_.emplace_back(arrival_cycle, index);
    ++injected_;
}

std::vector<Job *>
OpenRun::poolPointers() const
{
    std::vector<Job *> jobs;
    jobs.reserve(pool_.size());
    for (const PoolEntry &entry : pool_)
        jobs.push_back(entry.job.get());
    return jobs;
}

std::uint64_t
OpenRun::remainingInstructions() const
{
    std::uint64_t remaining = 0;
    for (const PoolEntry &entry : pool_) {
        const Job &job = *entry.job;
        if (job.retired() < job.sizeInstructions)
            remaining += job.sizeInstructions - job.retired();
    }
    return remaining;
}

PerfCounters
OpenRun::takeRecentCounters()
{
    PerfCounters taken = recentCounters_;
    recentCounters_.clear();
    return taken;
}

std::uint64_t
OpenRun::maxSlices() const
{
    // Generous runaway bound: the run should end when all jobs finish.
    return 2000 * static_cast<std::uint64_t>(injected_) +
           4000000000ULL / timeslice_;
}

bool
OpenRun::retire()
{
    bool any_finished = false;
    for (std::size_t i = pool_.size(); i-- > 0;) {
        Job &job = *pool_[i].job;
        if (job.retired() < job.sizeInstructions)
            continue;
        responses_.emplace_back(pool_[i].arrivalIndex,
                                now_ - job.arrivalCycle);
        backend_.evictJob(&job);
        queue_.push(EventKind::JobDeparture, now_,
                    pool_[i].arrivalIndex);
        pool_.erase(pool_.begin() + static_cast<std::ptrdiff_t>(i));
        ++completed_;
        any_finished = true;
    }
    if (any_finished)
        naive_cursor_ =
            pool_.empty() ? 0 : naive_cursor_ % pool_.size();
    return any_finished;
}

void
OpenRun::beginPhase(bool from_timer)
{
    const int n = static_cast<int>(pool_.size());
    // Start at a random point of each schedule's period: arrivals
    // restart sampling so often that always beginning at the
    // canonical first tuple would systematically starve the jobs
    // that only appear late in the period.
    phase_offset_ = rng_.next() & 0xffff;
    ++timer_generation_; // stale any outstanding backoff timer
    symbios_slice_ = 0;
    if (n <= capacity_) {
        // Trivial pool: only one sensible coschedule, nothing to
        // learn. Run it; the next membership change resamples.
        current_ = backend_.trivialCandidate(n);
        SosKernel::advance(phase_, SosKernel::Phase::Symbios);
        return;
    }
    window_ = backend_.windowSlices(n);
    // Spend at most about half the expected inter-arrival gap
    // sampling, so a symbios phase usually gets to run; always
    // compare at least two schedules.
    const std::uint64_t budget_slices =
        resample_->baseInterval() / (2 * timeslice_);
    const int count = static_cast<int>(std::clamp<std::uint64_t>(
        budget_slices / std::max<std::uint64_t>(1, window_), 2,
        static_cast<std::uint64_t>(config_.sampleSchedules)));
    candidates_ = backend_.drawCandidates(n, count, rng_);
    // The samplek screen thins the drawn set before any fork is
    // profiled; with no screen installed the draw is used as-is
    // (bit-identical to pre-model builds).
    if (config_.screen && candidates_.size() > 1) {
        const std::vector<std::size_t> kept =
            config_.screen(candidates_, poolPointers());
        SOS_ASSERT(!kept.empty(),
                   "the samplek screen kept no candidate");
        std::vector<OpenCandidate> screened;
        screened.reserve(kept.size());
        for (std::size_t k = 0; k < kept.size(); ++k) {
            SOS_ASSERT(kept[k] < candidates_.size(),
                       "screen index out of range");
            SOS_ASSERT(k == 0 || kept[k - 1] < kept[k],
                       "screen indices must be strictly increasing");
            screened.push_back(std::move(candidates_[kept[k]]));
        }
        candidates_ = std::move(screened);
    }
    timer_triggered_ = from_timer;
    ++sample_phases_;
    if (from_timer)
        ++timer_resamples_;
    else
        ++job_change_resamples_;
    // The window runs atomically, but never past the next
    // arrival: an imminent arrival shortens the profile the same
    // way it used to interrupt serial in-place sampling.
    if (!pending_.empty() && pending_.front().first > now_) {
        const std::uint64_t until = pending_.front().first - now_;
        window_ =
            std::min(window_, (until + timeslice_ - 1) / timeslice_);
    }
    // Nor past the advanceTo() horizon: an epoch barrier truncates
    // the window exactly like an imminent arrival. (No-op for a
    // whole-trace run, whose horizon is kNoLimit.)
    if (limit_ != kNoLimit)
        window_ = std::min(window_, (limit_ - now_) / timeslice_);
    window_ = std::max<std::uint64_t>(1, window_);
    SosKernel::advance(phase_, SosKernel::Phase::Sample);
    queue_.push(EventKind::PhaseComplete, now_ + window_ * timeslice_);
    if (events_) {
        events_->event("sample_phase_begin")
            .field("phase", sample_phases_)
            .field("trigger", from_timer ? "timer" : "job_change")
            .field("jobs", n)
            .field("candidates",
                   static_cast<std::uint64_t>(candidates_.size()))
            .field("slices_per_candidate", window_);
    }
}

void
OpenRun::retireAndResample()
{
    if (retire() && policy_ == OpenPolicy::Sos && !pool_.empty()) {
        resample_->onJobChange();
        beginPhase(/*from_timer=*/false);
    }
}

void
OpenRun::runSampleWindow()
{
    // Profile every candidate on a private fork of the live state, in
    // parallel; the whole window elapses at once.
    const int n = static_cast<int>(pool_.size());
    const std::vector<ScheduleProfile> profiles =
        backend_.profileCandidates(poolPointers(), candidates_, window_,
                                   phase_offset_, workers_);
    const int best = predictor_->best(profiles);
    const OpenCandidate &pick =
        candidates_[static_cast<std::size_t>(best)];
    const bool changed = pick.key != previousKey_;
    previousKey_ = pick.key;
    if (timer_triggered_)
        resample_->onTimerSample(changed);
    if (events_) {
        events_->event("symbios_pick")
            .field("phase", sample_phases_)
            .field("predictor", predictor_->name())
            .field("pick", best)
            .field("schedule", pick.label)
            .field("changed", changed);
    }

    // The winner's fork ran the pool for the whole window on its
    // schedule: adopt its end state as the live state.
    std::vector<std::unique_ptr<Job>> adopted =
        backend_.adoptFork(static_cast<std::size_t>(best));
    SOS_ASSERT(adopted.size() == pool_.size());
    for (std::size_t j = 0; j < pool_.size(); ++j)
        pool_[j].job = std::move(adopted[j]);
    current_ = pick;

    now_ += window_ * timeslice_;
    slices_ += window_;
    sample_slices_ += window_;
    jobs_in_system_integral_ +=
        static_cast<double>(n) * static_cast<double>(window_);

    SosKernel::advance(phase_, SosKernel::Phase::Symbios);
    symbios_slice_ = 0;
    queue_.push(EventKind::BackoffTimer,
                now_ + resample_->symbiosDuration(), -1,
                ++timer_generation_);
    retireAndResample();
}

void
OpenRun::advanceTo(std::uint64_t limit)
{
    SOS_ASSERT(limit == kNoLimit || limit % timeslice_ == 0,
               "advanceTo horizon must sit on the timeslice grid");
    limit_ = limit;

    while (completed_ < injected_ && now_ < limit) {
        SOS_ASSERT(slices_ < maxSlices(),
                   "open system did not drain: unstable configuration");

        // Dispatch every event due by now.
        bool membership_changed = false;
        bool timer_due = false;
        while (!queue_.empty() && queue_.top().cycle <= now_) {
            const Event event = queue_.pop();
            switch (event.kind) {
              case EventKind::JobArrival: {
                SOS_ASSERT(!pending_.empty() &&
                               event.index == pending_.front().second,
                           "arrivals must pop in injection order");
                pending_.pop_front();
                std::unique_ptr<Job> job = makeJob_(
                    static_cast<std::size_t>(event.index));
                pool_.push_back(
                    PoolEntry{std::move(job), event.index});
                membership_changed = true;
                break;
              }
              case EventKind::BackoffTimer:
                // Only the timer of the current symbios phase counts;
                // older generations were superseded by a resample.
                if (event.generation == timer_generation_)
                    timer_due = true;
                break;
              case EventKind::JobDeparture:
              case EventKind::PhaseComplete:
                // Bookkeeping records: departures resample at the
                // retire site, phase windows complete inline.
                break;
            }
        }

        if (pool_.empty()) {
            // Idle until the next event (an arrival: timers need a
            // pool), on the timeslice grid. Every pending arrival
            // lies below the horizon (advanceTo's contract), so the
            // jump never overshoots a finite limit.
            SOS_ASSERT(!queue_.empty());
            const std::uint64_t target = queue_.top().cycle;
            now_ = (target / timeslice_ + 1) * timeslice_;
            continue;
        }

        const int n = static_cast<int>(pool_.size());
        std::vector<std::vector<int>> tuples;

        if (policy_ == OpenPolicy::Naive) {
            // Coschedule the next `capacity` jobs in arrival-rotation
            // order, spread over the cores.
            const int count = std::min(n, capacity_);
            std::vector<int> chosen;
            chosen.reserve(static_cast<std::size_t>(count));
            for (int k = 0; k < count; ++k)
                chosen.push_back(static_cast<int>(
                    (naive_cursor_ + static_cast<std::size_t>(k)) %
                    pool_.size()));
            naive_cursor_ =
                (naive_cursor_ + static_cast<std::size_t>(count)) %
                pool_.size();
            tuples = backend_.spread(chosen);
        } else {
            if (membership_changed) {
                resample_->onJobChange();
                beginPhase(/*from_timer=*/false);
            } else if (timer_due &&
                       phase_ == SosKernel::Phase::Symbios &&
                       n > capacity_) {
                beginPhase(/*from_timer=*/true);
            }
            if (phase_ == SosKernel::Phase::Sample) {
                runSampleWindow();
                continue;
            }
            // Symbios (also covers trivial pools): run the committed
            // coschedule one timeslice at a time.
            SOS_ASSERT(phase_ == SosKernel::Phase::Symbios);
            tuples = current_.tuplesAt(phase_offset_ + symbios_slice_);
            ++symbios_slice_;
        }

        recentCounters_ += backend_.runLiveSlice(poolPointers(), tuples);
        now_ += timeslice_;
        ++slices_;
        jobs_in_system_integral_ += static_cast<double>(n);
        retireAndResample();
    }

    limit_ = kNoLimit;
}

void
OpenRun::finalize()
{
    SOS_ASSERT(drained(), "finalize() before the run drained");
    SosKernel::advance(phase_, SosKernel::Phase::Done);
}

} // namespace sos
