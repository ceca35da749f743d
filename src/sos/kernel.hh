/**
 * @file
 * The SOS kernel: one sample/symbios state machine.
 *
 * Before this kernel existed, four drivers (batch, hierarchical,
 * machine, open system) each re-implemented the paper's
 * Sample-Optimize-Symbios loop. The kernel owns it once:
 *
 *  - a Phase state machine (Idle -> Sample -> Symbios -> ... -> Done)
 *    whose transitions are validated in one place (advance(), shared
 *    with the open-system loop);
 *  - the phase bookkeeping every closed driver needs: candidate
 *    profiles, measured symbios WS, sample-phase cycle accounting,
 *    predictor evaluation.
 *
 * Closed-system experiments run their candidates through
 * ParallelScheduleRunner::runAll and hand the index-ordered runs to
 * the kernel, which turns them into SAMPLE profiles and SYMBIOS
 * results and keeps them; the experiments only translate
 * configuration and publish stats. The open system's arrival-driven
 * loop is OpenRun (sos/open_run.hh), which runs the same phase
 * machine over an event queue on an EngineBackend.
 *
 * Determinism: every decision is a pure function of (config,
 * candidate index), so runs are bit-identical for any SOS_JOBS
 * worker count.
 */

#ifndef SOS_SOS_KERNEL_HH
#define SOS_SOS_KERNEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/predictor.hh"
#include "core/schedule_profile.hh"
#include "sim/parallel_runner.hh"

namespace sos {

namespace stats {
class EventTrace;
class Group;
} // namespace stats

/** The shared sample/symbios state machine behind every driver. */
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
     * Move @p phase to @p next, asserting the transition is legal;
     * shared with OpenRun, which owns its own copy of the state machine.
     */
    static void advance(Phase &phase, Phase next);

    /** @name Closed mode (batch / hierarchical drivers) @{ */

    /**
     * SAMPLE: record one ScheduleProfile per candidate run (profiled
     * from equal footing, index-ordered) plus the cycles spent.
     * @p labels names each candidate. Every phase records the
     * sampling tally of each run it reads (recordSampling), so a run
     * read by both phases counts once per phase.
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

  private:
    /** One detailed sample profile; charges its cycles. */
    ScheduleProfile sampleProfile(const Run &run, std::string label);

    Phase phase_ = Phase::Idle;

    std::vector<ScheduleProfile> profiles_;
    std::vector<double> symbiosWs_;
    std::uint64_t sampleCycles_ = 0;
};

} // namespace sos

#endif // SOS_SOS_KERNEL_HH
