/**
 * @file
 * Closed-system (fixed jobmix) SOS experiment Jm(X,C,Y,Z): X runnable
 * jobs on C SMT cores of level Y swapping Z jobs per timeslice. The
 * paper's Js(X,Y,Z) experiments are the C=1 case.
 *
 * Reproduces the paper's Section 5 methodology: sample a set of
 * distinct schedules (10, or the whole space when smaller), profile
 * each for one full period of timeslices while the mix makes fair
 * progress, then run every sampled schedule for the symbios duration
 * and measure its weighted speedup. Predictors are then judged by
 * the symbios WS of the schedule they would have picked from the
 * sample-phase profiles alone (Table 3, Figures 1-3). On a CMP a
 * candidate is a machine schedule -- a thread-to-core allocation plus
 * a per-core coschedule sequence each -- and the counters sum over
 * cores, which is the machine-level SOS the multicore figure reports.
 *
 * The same sample-phase data also feeds the thread-to-core *policy*
 * comparison: a ThreadToCorePolicy fixes only the allocation, and the
 * experiment measures the symbios WS over that allocation's per-core
 * schedule choices -- what an OS choosing placements without (naive,
 * random), with coarse (balanced-icount), or with full (synpa)
 * symbiosis information would achieve.
 *
 * Each candidate is profiled on private machine state (its own
 * machine, engine and jobmix rebuilt from the spec), so candidates
 * are compared from bit-identical starting conditions and the whole
 * sweep fans out across worker threads deterministically; see
 * ParallelScheduleRunner for the contract.
 */

#ifndef SOS_SIM_BATCH_EXPERIMENT_HH
#define SOS_SIM_BATCH_EXPERIMENT_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "core/predictor.hh"
#include "core/schedule_profile.hh"
#include "core/thread_to_core.hh"
#include "cpu/machine.hh"
#include "metrics/calibrator.hh"
#include "model/features.hh"
#include "sched/jobmix.hh"
#include "sched/machine_schedule.hh"
#include "sim/experiment_defs.hh"
#include "sim/machine_engine.hh"
#include "sim/parallel_runner.hh"
#include "sim/sim_config.hh"
#include "sos/kernel.hh"

namespace sos {

namespace stats {
class EventTrace;
class Group;
} // namespace stats

/** Runs the sample and symbios phases of one closed experiment. */
class BatchExperiment
{
  public:
    /** Outcome of evaluating one thread-to-core allocation policy. */
    struct PolicyResult
    {
        std::string policy;       ///< registry key
        Partition allocation;     ///< the partition the policy chose
        std::string allocationLabel; ///< e.g. "{0,1,2,3}{4,5,6,7}"
        double bestWs = 0.0; ///< best symbios WS over the allocation
        double avgWs = 0.0;  ///< mean symbios WS over the allocation
        int schedulesRun = 0; ///< per-core schedule combinations run
    };

    /**
     * Calibrates the mix's solo IPCs (once per core class) into the
     * shared SoloIpcTable, on a pool of config.jobs workers the
     * experiment owns for its lifetime. A 1-core spec runs on the
     * homogeneous coreFor(level)/mem core even when a machine config
     * is loaded; C > 1 builds machineFor(level, C), and every job must
     * then be single-threaded.
     */
    BatchExperiment(const ExperimentSpec &spec, const SimConfig &config);

    /**
     * The same experiment with every batch -- calibration and sweeps
     * -- on @p pool and its references in @p table. Both must outlive
     * the experiment.
     */
    BatchExperiment(const ExperimentSpec &spec, const SimConfig &config,
                    ThreadPool &pool, SoloIpcTable &table);

    /**
     * Sample phase: draw the candidate schedules and profile each for
     * samplePeriods full periods of timeslices. Each candidate runs
     * once, on to the symbios duration, and the symbios-length result
     * is kept for runSymbiosValidation(): both phases start from the
     * same warm state, so the sample profile is an exact prefix of
     * the symbios run.
     */
    void runSamplePhase();

    /**
     * Symbios validation: record every sampled schedule's measured
     * weighted speedup over the symbios duration, from the runs the
     * sample phase kept. Requires a completed sample phase. On a CMP
     * it keeps the best-WS candidate's run, whose machine counters
     * publishStats() publishes.
     */
    void runSymbiosValidation();

    /**
     * Evaluate a thread-to-core policy: let it pick an allocation
     * (from solo IPCs and the sample-phase coschedule measurements),
     * then measure the symbios WS of every per-core schedule choice
     * under that fixed allocation. Requires a completed sample phase;
     * results accumulate for publishStats()/recordTrace().
     */
    const PolicyResult &
    evaluatePolicy(const std::string &name,
                   std::uint64_t symbios_cycles = 0);

    const ExperimentSpec &spec() const { return spec_; }
    const SimConfig &config() const { return config_; }
    const MachineScheduleSpace &space() const { return space_; }
    JobMix &mix() { return mix_; }

    const std::vector<MachineSchedule> &schedules() const
    {
        return schedules_;
    }
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
     * the learned predictor score them. Single-core experiments only;
     * requires a completed sample phase (the schedules must have been
     * drawn).
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

    /** Policy evaluations so far, in evaluation order. */
    const std::vector<PolicyResult> &policyResults() const
    {
        return policyResults_;
    }

    /**
     * Sample-phase measurements in the form SYNPA-style policies
     * consume: per candidate, the per-core coschedule tuples of one
     * period plus the sampled WS.
     */
    std::vector<CoscheduleSample> coscheduleSamples() const;

    /**
     * The recipe every phase runs @p schedules with: private mixes
     * cloned from the calibrated prototype on private machines, each
     * candidate warmed by one period of its allocation's neutral
     * rotation (shared through one warm engine per allocation). The
     * recipe refers to @p schedules, which must outlive it.
     */
    ParallelScheduleRunner::SweepSpec
    sweep(const std::vector<MachineSchedule> &schedules) const;

    /**
     * Register everything this experiment measured under @p group:
     * one "candidate<i>" subtree per sampled schedule (label, sample
     * and symbios WS, balance/diversity signals, the full counter
     * snapshot) plus the sample-phase cost and, once the symbios
     * validation ran, the best/worst/average summary. A CMP adds a
     * "machine" subtree with the shared-L2 and per-core cache counters
     * of the best-WS candidate's symbios run, as the sweep measured it
     * from its warm fork (plus each core's pipeline counters over that
     * run under "core<k>.perf"), and every evaluated policy adds a
     * "policy.<name>" subtree. Call after the phases you want visible
     * have completed.
     */
    void publishStats(const stats::Group &group) const;

    /**
     * Append this experiment's scheduler decisions to @p trace: one
     * sample-candidate event per profiled schedule, then (after the
     * symbios validation) every predictor's vote and the measured
     * symbios result per candidate, then one "allocation_policy" per
     * evaluated policy. A single core writes "sample_candidate" (with
     * the candidate's model features), "predictor_vote" and
     * "symbios_result"; a CMP writes the "machine_"-prefixed names.
     * Events are appended from the merged, index-ordered results,
     * preserving the sweep determinism contract.
     */
    void recordTrace(stats::EventTrace &trace) const;

  private:
    /** Borrows @p pool, or owns a config.jobs pool when it is null. */
    BatchExperiment(const ExperimentSpec &spec, const SimConfig &config,
                    ThreadPool *pool, SoloIpcTable &table);

    /** Engine quantum for this experiment in simulated cycles. */
    std::uint64_t timesliceCycles() const;

    /** Symbios-phase timeslices for a @p symbios_cycles override. */
    std::uint64_t
    symbiosTimeslices(std::uint64_t symbios_cycles = 0) const;

    /** Rebuild the calibrated mix a private task runs on. */
    JobMix freshMix() const;

    /**
     * The neutral warmup schedule for an allocation: each core cycles
     * its own group once, so no candidate is charged for compulsory
     * cache and predictor misses. (The paper's 5 M-cycle timeslices
     * amortize cold start; our scaled ones need this.)
     */
    MachineSchedule warmupFor(const Partition &allocation) const;

    /**
     * The samplek screen: score every candidate with the model named
     * by config_.modelPath and return, ascending, the ones the sample
     * phase detail-simulates (the top-K plus the high-uncertainty
     * ones). @p synthetic gets one model-predicted profile per
     * candidate, for the rest.
     */
    std::vector<std::size_t>
    screenCandidates(std::vector<ScheduleProfile> &synthetic) const;

    ExperimentSpec spec_;
    SimConfig config_;
    MachineParams machineParams_; ///< the machine every candidate runs on
    MachineScheduleSpace space_;
    JobMix mix_; ///< calibrated prototype; tasks clone its soloIpc
    ParallelScheduleRunner runner_;

    /** @name Heterogeneity context for allocation policies @{ */
    std::vector<int> coreClasses_; ///< empty when homogeneous
    std::vector<std::vector<double>> soloIpcByClass_;
    /** @} */

    std::vector<MachineSchedule> schedules_;
    SosKernel kernel_; ///< owns profiles, symbios WS, phase cycles

    /** Symbios-length run per candidate, kept by the sample phase. */
    std::vector<ParallelScheduleRunner::ScheduleRun> symbiosRuns_;

    std::vector<PolicyResult> policyResults_;

    /** The best-WS candidate and its symbios-length run. */
    struct BestRun
    {
        std::size_t index = 0;
        MachineEngine::MachineRunResult run;
    };
    /** Kept by runSymbiosValidation() on a CMP, for publishStats(). */
    std::optional<BestRun> best_;
};

/**
 * Construct every experiment of @p specs and run its sample and
 * symbios phases, the experiments overlapping on @p pool: the union of
 * their solo references is measured first as one batch into
 * @p table, then each experiment is one task of one batch, admitted in
 * spec order and never more at once than the pool has workers. Every
 * experiment is bit-identical to a serial construct -> sample ->
 * symbios loop; the caller publishes stats, records traces and
 * prints rows from the returned experiments, which are in spec order.
 * @p pool and @p table must outlive them.
 */
std::vector<std::unique_ptr<BatchExperiment>>
runExperiments(const std::vector<ExperimentSpec> &specs,
               const SimConfig &config, ThreadPool &pool,
               SoloIpcTable &table = SoloIpcTable::shared());

} // namespace sos

#endif // SOS_SIM_BATCH_EXPERIMENT_HH
