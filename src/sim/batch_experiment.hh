/**
 * @file
 * Closed-system (fixed jobmix) SOS experiment.
 *
 * Reproduces the paper's Section 5 methodology: sample a set of
 * distinct schedules (10, or the whole space when smaller), profile
 * each for one full period of timeslices while the mix makes fair
 * progress, then run every sampled schedule for the symbios duration
 * and measure its weighted speedup. Predictors are then judged by
 * the symbios WS of the schedule they would have picked from the
 * sample-phase profiles alone (Table 3, Figures 1-3).
 *
 * Each candidate schedule is profiled on private machine state (its
 * own core, engine and jobmix rebuilt from the spec), so candidates
 * are compared from bit-identical starting conditions and the whole
 * sweep fans out across worker threads deterministically; see
 * ParallelScheduleRunner for the contract.
 */

#ifndef SOS_SIM_BATCH_EXPERIMENT_HH
#define SOS_SIM_BATCH_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "core/predictor.hh"
#include "core/schedule_profile.hh"
#include "metrics/calibrator.hh"
#include "model/features.hh"
#include "sched/jobmix.hh"
#include "sched/schedule.hh"
#include "sim/experiment_defs.hh"
#include "sim/parallel_runner.hh"
#include "sim/sim_config.hh"
#include "sos/kernel.hh"

namespace sos {

namespace stats {
class EventTrace;
class Group;
} // namespace stats

/** Runs the sample and symbios phases of one Table 1 experiment. */
class BatchExperiment
{
  public:
    BatchExperiment(const ExperimentSpec &spec, const SimConfig &config);

    /**
     * Sample phase: draw the candidate schedules and profile each for
     * one full period of timeslices.
     */
    void runSamplePhase();

    /**
     * Symbios validation: run every sampled schedule for the symbios
     * duration and record its measured weighted speedup. Requires a
     * completed sample phase.
     *
     * @param symbios_cycles Override; 0 uses the config default.
     */
    void runSymbiosValidation(std::uint64_t symbios_cycles = 0);

    const ExperimentSpec &spec() const { return spec_; }
    const SimConfig &config() const { return config_; }
    JobMix &mix() { return mix_; }

    const std::vector<Schedule> &schedules() const { return schedules_; }
    const std::vector<ScheduleProfile> &profiles() const
    {
        return kernel_.profiles();
    }

    /**
     * Model features of every sampled candidate, in candidate order:
     * composeScheduleFeatures over the calibrated mix's per-unit
     * signatures and each schedule's tuple structure. Pure static
     * information -- computable before any candidate is simulated --
     * which is what lets the samplek screen shortlist candidates and
     * the learned predictor score them. Requires a completed sample
     * phase (the schedules must have been drawn).
     */
    std::vector<model::FeatureVector> candidateFeatures() const;

    /** Simulated cycles spent in the sample phase. */
    std::uint64_t
    samplePhaseCycles() const
    {
        return kernel_.samplePhaseCycles();
    }

    /** Measured symbios-phase WS per sampled schedule. */
    const std::vector<double> &
    symbiosWs() const
    {
        return kernel_.symbiosWs();
    }

    /** @name Summary statistics over the symbios runs @{ */
    double bestWs() const { return kernel_.bestWs(); }
    double worstWs() const { return kernel_.worstWs(); }
    /** The oblivious-scheduler expectation. */
    double averageWs() const { return kernel_.averageWs(); }
    /** @} */

    /** Index of the schedule the predictor picks from the profiles. */
    int
    predictedIndex(const Predictor &predictor) const
    {
        return kernel_.predictedIndex(predictor);
    }

    /** Symbios WS attained by trusting the given predictor. */
    double
    wsOfPredictor(const Predictor &predictor) const
    {
        return kernel_.wsOfPredictor(predictor);
    }

    /**
     * The recipe every phase runs its candidates with (candidates are
     * lifted to 1-core MachineSchedules): private mixes cloned from
     * the calibrated prototype on a 1-core machine at the
     * experiment's level, each warmed by one period of the neutral
     * rotation.
     */
    ParallelScheduleRunner::SweepSpec sweep() const;

    /**
     * Register everything this experiment measured under @p group:
     * one "candidate<i>" subtree per sampled schedule (label, sample
     * and symbios WS, balance/diversity signals, the full counter
     * snapshot) plus the sample-phase cost and, once the symbios
     * validation ran, the best/worst/average summary. Stats bind to
     * this experiment's storage, so it must outlive any dump. Call
     * after the phases you want visible have completed.
     */
    void publishStats(const stats::Group &group) const;

    /**
     * Append this experiment's scheduler decisions to @p trace: one
     * "sample_candidate" event per profiled schedule, then (after the
     * symbios validation) every predictor's "predictor_vote" and the
     * measured "symbios_result" per candidate. Events are appended
     * from the merged, index-ordered results, preserving the sweep
     * determinism contract.
     */
    void recordTrace(stats::EventTrace &trace) const;

  private:
    /** Engine quantum for this experiment in simulated cycles. */
    std::uint64_t timesliceCycles() const;

    /**
     * Run @p schedules for timeslices(i) quanta each on sweep(),
     * forking the warm state an earlier phase kept in warmed_.
     */
    std::vector<ParallelScheduleRunner::ScheduleRun> runCandidates(
        const std::vector<Schedule> &schedules,
        const std::function<std::uint64_t(std::size_t)> &timeslices);

    /** Static per-unit signatures of the calibrated mix. */
    std::vector<model::ThreadSignature> unitSignatures() const;

    /**
     * The samplek screen: score every candidate with the model named
     * by config_.modelPath, detail-simulate only the top-K plus the
     * high-uncertainty ones, and fill the rest with synthetic
     * profiles.
     */
    void runScreenedSamplePhase(std::uint64_t periods);

    ExperimentSpec spec_;
    SimConfig config_;
    JobMix mix_; ///< calibrated prototype; tasks clone its soloIpc
    ParallelScheduleRunner runner_;
    /** Warmed once by the sample phase, forked again by the symbios. */
    WarmSnapshots warmed_;

    std::vector<Schedule> schedules_;
    SosKernel kernel_; ///< owns profiles, symbios WS, phase cycles
};

} // namespace sos

#endif // SOS_SIM_BATCH_EXPERIMENT_HH
