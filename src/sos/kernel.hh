/**
 * @file
 * The event-driven SOS kernel: one sample/symbios state machine.
 *
 * Before this kernel existed, four drivers (batch, hierarchical,
 * machine, open system) each re-implemented the paper's
 * Sample-Optimize-Symbios loop. The kernel owns the loop once:
 *
 *  - a Phase state machine (Idle -> Sample -> Symbios -> ... -> Done)
 *    whose transitions are validated in one place;
 *  - a deterministic EventQueue (job arrivals, departures, backoff-
 *    timer expiries, phase completions) driving the open-system run;
 *  - the phase bookkeeping every driver needs: candidate profiles,
 *    measured symbios WS, sample-phase cycle accounting, predictor
 *    evaluation.
 *
 * Closed-system experiments run their candidates through
 * ParallelScheduleRunner::runAll and hand the index-ordered runs to
 * the kernel, which turns them into SAMPLE profiles and SYMBIOS
 * results and keeps them; the experiments only translate
 * configuration and publish stats.
 * The open system adapts through EngineBackend: the kernel replays an
 * arrival trace, sampling candidate coschedules on parallel forks of
 * the live machine state and adopting the predicted winner.
 *
 * Determinism: every decision is a pure function of (config, trace,
 * candidate index). Fork profiling fans out through
 * ParallelScheduleRunner, so runs are bit-identical for any SOS_JOBS
 * worker count; the event queue breaks same-cycle ties by scheduling
 * order (see event.hh).
 */

#ifndef SOS_SOS_KERNEL_HH
#define SOS_SOS_KERNEL_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/predictor.hh"
#include "core/schedule_profile.hh"
#include "sim/open_system.hh"
#include "sim/parallel_runner.hh"
#include "sos/event.hh"
#include "sos/open_backend.hh"

namespace sos {

namespace stats {
class EventTrace;
class Group;
} // namespace stats

/** The shared sample/symbios state machine behind all four drivers. */
class SosKernel
{
  public:
    /** Where the state machine is. */
    enum class Phase
    {
        Idle,    ///< nothing scheduled yet
        Sample,  ///< profiling candidate coschedules
        Symbios, ///< running the predicted best coschedule
        Done,    ///< the run is complete
    };

    /** One candidate's measured run, as the sweep runner reports it. */
    using Run = ParallelScheduleRunner::ScheduleRun;

    SosKernel() = default;
    SosKernel(const SosKernel &) = delete;
    SosKernel &operator=(const SosKernel &) = delete;
    // Movable so experiments owning a kernel can be returned by
    // value; stat groups bind to kernel storage only after the owner
    // reaches its final location.
    SosKernel(SosKernel &&) = default;
    SosKernel &operator=(SosKernel &&) = default;

    Phase phase() const { return phase_; }

    /**
     * True when @p from -> @p to is a legal phase transition; shared
     * with OpenRun, which owns its own copy of the state machine.
     */
    static bool legalTransition(Phase from, Phase to);

    /** @name Closed mode (batch / hierarchical / machine drivers) @{ */

    /**
     * SAMPLE: record one ScheduleProfile per candidate run (profiled
     * from equal footing, index-ordered) plus the cycles spent.
     * @p labels names each candidate.
     */
    void runSamplePhase(const std::vector<Run> &runs,
                        const std::vector<std::string> &labels);

    /**
     * SAMPLE with the samplek screen: only the shortlisted candidates
     * were detail-simulated; the rest keep their @p synthetic
     * profiles (detailed = false, model-predicted sampleWs).
     *
     * @p runs is indexed by shortlist position; @p shortlist maps each
     * position to its full candidate index and must be strictly
     * increasing. @p synthetic must hold one labelled profile per full
     * candidate; shortlisted entries are overwritten with the detailed
     * measurements under the same label. Only detailed runs charge
     * sample cycles.
     */
    void runSamplePhaseScreened(const std::vector<Run> &runs,
                                const std::vector<std::size_t> &shortlist,
                                std::vector<ScheduleProfile> synthetic);

    /**
     * SYMBIOS: record every candidate's measured weighted speedup over
     * the validation interval. Requires a completed sample phase;
     * ends the state machine (closed runs validate all candidates
     * instead of committing to one).
     */
    void runSymbiosValidation(const std::vector<Run> &runs);

    /** Sample-phase profiles, in candidate order. */
    const std::vector<ScheduleProfile> &profiles() const
    {
        return profiles_;
    }

    /** Measured symbios WS per candidate. */
    const std::vector<double> &symbiosWs() const { return symbiosWs_; }

    /** Simulated cycles spent profiling candidates. */
    std::uint64_t samplePhaseCycles() const { return sampleCycles_; }

    /** @name Summary statistics over the symbios runs @{ */
    double bestWs() const;
    double worstWs() const;
    double averageWs() const; ///< the oblivious-scheduler expectation
    /** @} */

    /** Candidate index the predictor picks from the profiles. */
    int predictedIndex(const Predictor &predictor) const;

    /** Symbios WS attained by trusting the given predictor. */
    double wsOfPredictor(const Predictor &predictor) const;

    /**
     * Register the closed-sweep results under @p group: the
     * sample-phase cost, one "candidate<i>" subtree per profile
     * (label, sample and symbios WS, balance/diversity signals, the
     * full counter snapshot) and, once the symbios validation ran,
     * the best/worst/average summary. Stats bind to this kernel's
     * storage, so it must outlive any dump.
     */
    void publishStats(const stats::Group &group) const;

    /**
     * Append the symbios-phase decisions to @p trace, tagged with
     * @p experiment: one @p vote_event per predictor (its pick and
     * the pick's measured WS), then one @p result_event per
     * candidate. A no-op before the symbios validation.
     */
    void recordSymbios(stats::EventTrace &trace,
                       const std::string &experiment,
                       const char *vote_event,
                       const char *result_event) const;

    /** @} */

    /** @name Open mode (arrival-driven job pool) @{ */

    /** Open-system knobs the kernel needs (substrate-independent). */
    struct OpenConfig
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

        /** Sweep worker count (SimConfig::jobs semantics). */
        int jobs = 0;

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
     * Replay @p trace on @p backend under @p policy until every job
     * completes. Arrivals, departures, backoff-timer expiries and
     * phase completions flow through the deterministic event queue;
     * under OpenPolicy::Sos each sample phase profiles candidates on
     * parallel forks of the live state (see EngineBackend) and adopts
     * the predictor's pick. When @p events is non-null the kernel
     * appends "sample_phase_begin" and "symbios_pick" decisions.
     *
     * The loop itself lives in OpenRun (sos/open_run.hh); this wrapper
     * injects the whole trace up front and drains it, which replays
     * the exact pre-OpenRun operation sequence (golden-pinned).
     *
     * A kernel instance runs once; use a fresh one per run.
     */
    OpenSystemResult runOpen(EngineBackend &backend,
                             const OpenConfig &config,
                             const std::vector<JobArrival> &trace,
                             OpenPolicy policy,
                             const JobFactory &make_job,
                             stats::EventTrace *events = nullptr);

    /** @} */

  private:
    /** Move the state machine, asserting the transition is legal. */
    void advance(Phase next);

    /** One detailed sample profile; charges its cycles. */
    ScheduleProfile sampleProfile(const Run &run, std::string label);

    Phase phase_ = Phase::Idle;

    std::vector<ScheduleProfile> profiles_;
    std::vector<double> symbiosWs_;
    std::uint64_t sampleCycles_ = 0;
};

} // namespace sos

#endif // SOS_SOS_KERNEL_HH
