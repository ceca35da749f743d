/**
 * @file
 * The open-system run: the kernel's arrival-driven sample/symbios
 * loop as an object that can be advanced in bounded steps.
 *
 * This is the only open-system loop. A single-machine experiment
 * (runOpenSystem()) injects its whole arrival trace up front and
 * drains it in one advanceTo(kNoLimit) step; the cluster layer slices
 * the same loop differently: each node advances to a barrier cycle
 * (the dispatch epoch), receives whatever arrivals the dispatcher
 * routed to it, and resumes -- all while staying bit-identical to a
 * serial execution. The loop's state (pool, event queue, phase
 * machine, resample timers, RNG) lives in members:
 *
 *   - inject() appends one arrival (cycles must be nondecreasing);
 *   - advanceTo() runs the event loop until the virtual clock reaches
 *     the limit or every injected job has completed;
 *   - finalize() asserts the run drained and closes the phase machine.
 *
 * Under a finite limit the only extra behaviour is the epoch cap: an
 * atomic sample window never crosses the advanceTo() horizon,
 * truncated the same way an imminent arrival always truncated it.
 * The open golden (tests/golden/open.json) pins both drivers.
 *
 * Determinism: an OpenRun is a pure function of (config, injected
 * arrivals). It performs no synchronization of its own: its sample
 * phases run their forks as batches on the ThreadPool it is given,
 * which may be nested inside a task of that pool (a figure's fan-out,
 * a cluster's node advance). Results are bit-identical for any
 * SOS_JOBS.
 */

#ifndef SOS_SOS_OPEN_RUN_HH
#define SOS_SOS_OPEN_RUN_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/predictor.hh"
#include "core/resample_policy.hh"
#include "cpu/perf_counters.hh"
#include "sos/event.hh"
#include "sos/kernel.hh"
#include "sos/open_backend.hh"

namespace sos {

namespace stats {
class EventTrace;
} // namespace stats

/** Scheduling policy of an open-system run. */
enum class OpenPolicy
{
    Naive,
    Sos,
};

/** One open-system kernel run, advanced in barrier-bounded steps. */
class OpenRun
{
  public:
    /** No horizon: advance until every injected job completes. */
    static constexpr std::uint64_t kNoLimit = ~0ULL;

    /** Open-system knobs the kernel needs (substrate-independent). */
    struct Config
    {
        /** Maximum candidates profiled per sample phase. */
        int sampleSchedules = 10;

        /** Predictor the symbios phase trusts. */
        std::string predictor = "IPC";

        /** Model file for the "learned" predictor (SimConfig::modelPath). */
        std::string modelPath;

        /** Resample-timer policy name (makeResamplePolicy()). */
        std::string resamplePolicy = "backoff";

        /** Base symbios interval in cycles (the backoff seed). */
        std::uint64_t baseIntervalCycles = 1;

        /** Seed of the kernel's private decision stream. */
        std::uint64_t seed = 0;

        /**
         * Optional samplek screen: given the drawn candidates and
         * the resident pool (pool order), return the indices of the
         * candidates worth detail-profiling, strictly increasing and
         * non-empty. Unset (the default) profiles every candidate,
         * bit-identical to pre-model builds. See makeModelScreen().
         */
        std::function<std::vector<std::size_t>(
            const std::vector<OpenCandidate> &,
            const std::vector<Job *> &)>
            screen;
    };

    /** Materialize the job of arrival @p index, ready to run. */
    using JobFactory =
        std::function<std::unique_ptr<Job>(std::size_t index)>;

    /**
     * Schedule arrivals onto @p backend under @p policy. Under
     * OpenPolicy::Sos each sample phase profiles candidates on
     * parallel forks of the live state (see EngineBackend), one batch
     * on @p workers (which must outlive the run), and adopts the
     * predictor's pick; when @p events is non-null the run appends
     * its "sample_phase_begin" and "symbios_pick" decisions.
     */
    OpenRun(EngineBackend &backend, const Config &config,
            OpenPolicy policy, JobFactory make_job, ThreadPool &workers,
            stats::EventTrace *events = nullptr);

    OpenRun(const OpenRun &) = delete;
    OpenRun &operator=(const OpenRun &) = delete;

    /**
     * Queue the arrival of global job @p index at @p arrival_cycle.
     * Cycles must be nondecreasing across calls; the job itself is
     * materialized by the factory when the arrival event fires.
     */
    void inject(std::uint64_t arrival_cycle, int index);

    /**
     * Run the event loop while the clock is below @p limit and
     * injected jobs remain. @p limit must be a multiple of the
     * backend's timeslice (or kNoLimit); every injected arrival must
     * lie below the limit of the advanceTo() call that consumes it.
     */
    void advanceTo(std::uint64_t limit);

    /** All injected jobs completed (trivially true before inject). */
    bool drained() const { return completed_ == injected_; }

    /** Close the phase machine; requires drained(). */
    void finalize();

    std::uint64_t now() const { return now_; }
    std::size_t injected() const { return injected_; }
    std::size_t completed() const { return completed_; }

    /** Instructions the resident jobs still have to retire. */
    std::uint64_t remainingInstructions() const;

    /** (global index, response cycles) per completion, retire order. */
    const std::vector<std::pair<int, std::uint64_t>> &
    responses() const
    {
        return responses_;
    }

    /** @name Accumulators backing OpenSystemResult / node stats @{ */
    std::uint64_t slicesRun() const { return slices_; }
    std::uint64_t sampleSlices() const { return sample_slices_; }
    int samplePhases() const { return sample_phases_; }
    int resamplesOnJobChange() const { return job_change_resamples_; }
    int resamplesOnTimer() const { return timer_resamples_; }
    double jobsInSystemIntegral() const
    {
        return jobs_in_system_integral_;
    }
    /** @} */

    /**
     * Machine counters accumulated over live slices since the last
     * takeRecentCounters() -- the measured signature the cluster's
     * signature-aware dispatcher reads at each barrier. (Sample-phase
     * forks profile into ScheduleProfiles instead; live symbios slices
     * dominate, which is what a node "looks like" to new work.)
     */
    PerfCounters takeRecentCounters();

  private:
    bool retire();
    /** Retire finished jobs; under SOS a departure resamples. */
    void retireAndResample();
    void beginPhase(bool from_timer);
    /** Profile the drawn candidates and adopt the predicted best. */
    void runSampleWindow();
    std::uint64_t maxSlices() const;

    /** One resident job. */
    struct PoolEntry
    {
        std::unique_ptr<Job> job;
        int arrivalIndex = 0;
    };

    std::vector<Job *> poolPointers() const;

    EngineBackend &backend_;
    Config config_;
    OpenPolicy policy_;
    JobFactory makeJob_;
    stats::EventTrace *events_;

    std::uint64_t timeslice_;
    int capacity_;

    Rng rng_;
    std::unique_ptr<ResampleTimer> resample_;
    std::unique_ptr<Predictor> predictor_;
    ThreadPool &workers_;

    SosKernel::Phase phase_ = SosKernel::Phase::Idle;
    EventQueue queue_;
    std::vector<PoolEntry> pool_;
    /** Injected, not yet arrived: (cycle, global index), FIFO. */
    std::deque<std::pair<std::uint64_t, int>> pending_;
    std::vector<std::pair<int, std::uint64_t>> responses_;

    std::uint64_t limit_ = kNoLimit; ///< horizon of the current step
    std::uint64_t now_ = 0;
    std::size_t injected_ = 0;
    std::size_t completed_ = 0;
    std::size_t naive_cursor_ = 0;
    double jobs_in_system_integral_ = 0.0;
    std::uint64_t slices_ = 0;
    std::uint64_t sample_slices_ = 0;
    int sample_phases_ = 0;
    int job_change_resamples_ = 0;
    int timer_resamples_ = 0;

    // Symbios state.
    OpenCandidate current_;
    std::string previousKey_;
    std::uint64_t symbios_slice_ = 0;
    std::uint64_t timer_generation_ = 0;

    // Sample state.
    std::vector<OpenCandidate> candidates_;
    std::uint64_t window_ = 1;
    std::uint64_t phase_offset_ = 0;
    bool timer_triggered_ = false;

    PerfCounters recentCounters_;
};

} // namespace sos

#endif // SOS_SOS_OPEN_RUN_HH
