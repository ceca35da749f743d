/**
 * @file
 * Machine-level (CMP-of-SMT-cores) SOS experiment.
 *
 * Lifts the paper's single-core sample/symbios methodology to a whole
 * machine: sample distinct *machine* schedules -- a thread-to-core
 * allocation plus a per-core coschedule sequence each -- profile every
 * candidate for full periods, then run each for the symbios duration
 * and measure the machine-wide weighted speedup. Predictors judge the
 * profiles exactly as on one core (the counters sum over cores), which
 * is the machine-level SOS the multicore figure reports.
 *
 * The same sample-phase data also feeds the thread-to-core *policy*
 * comparison: a ThreadToCorePolicy fixes only the allocation, and the
 * experiment measures the symbios WS over that allocation's per-core
 * schedule choices -- what an OS choosing placements without (naive,
 * random), with coarse (balanced-icount), or with full (synpa) symbiosis
 * information would achieve.
 *
 * Every candidate runs on a private Machine rebuilt from the spec, so
 * the sweep fans out deterministically (ParallelScheduleRunner's
 * contract): results are a pure function of the candidate index,
 * bit-identical for any SOS_JOBS.
 */

#ifndef SOS_SIM_MACHINE_EXPERIMENT_HH
#define SOS_SIM_MACHINE_EXPERIMENT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/predictor.hh"
#include "core/schedule_profile.hh"
#include "core/thread_to_core.hh"
#include "cpu/machine.hh"
#include "sched/jobmix.hh"
#include "sched/machine_schedule.hh"
#include "sim/machine_engine.hh"
#include "sim/parallel_runner.hh"
#include "sim/sim_config.hh"
#include "sos/kernel.hh"

namespace sos {

namespace stats {
class EventTrace;
class Group;
} // namespace stats

/** Declarative description of one machine experiment Jm(X,C,Y,Z). */
struct MachineExperimentSpec
{
    std::string label; ///< e.g. "Jm(8,2,2,2)"

    /** Single-threaded workloads, one per job (X entries). */
    std::vector<std::string> workloads;

    int numCores = 2; ///< C: SMT cores sharing the L2
    int level = 2;    ///< Y: per-core multithreading level
    int swap = 2;     ///< Z: jobs replaced per core per timeslice

    /** X: runnable jobs (= schedulable units; all single-threaded). */
    int numJobs() const { return static_cast<int>(workloads.size()); }

    /** Materialize the jobmix (fresh jobs with deterministic seeds). */
    JobMix makeMix(std::uint64_t seed) const;
};

/** The multicore-figure sweep: 8 jobs on 2 and on 4 two-way cores. */
const std::vector<MachineExperimentSpec> &machineExperiments();

/** Runs the sample and symbios phases of one machine experiment. */
class MachineExperiment
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

    MachineExperiment(const MachineExperimentSpec &spec,
                      const SimConfig &config);

    /** Sample phase: draw and profile distinct machine schedules. */
    void runSamplePhase();

    /**
     * Symbios validation: run every sampled machine schedule for the
     * symbios duration and record its measured machine-wide WS. Also
     * replays the best-WS candidate on a persistent stats machine so
     * publishStats() can expose live per-core cache counters.
     *
     * @param symbios_cycles Override; 0 uses the config default.
     */
    void runSymbiosValidation(std::uint64_t symbios_cycles = 0);

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

    const MachineExperimentSpec &spec() const { return spec_; }
    const SimConfig &config() const { return config_; }
    const MachineScheduleSpace &space() const { return space_; }
    JobMix &mix() { return mix_; }

    /** The machine every candidate runs on (per-core params). */
    const MachineParams &machineParams() const { return machineParams_; }

    /** Per-core equivalence classes (empty = homogeneous). */
    const std::vector<int> &coreClasses() const { return coreClasses_; }

    const std::vector<MachineSchedule> &schedules() const
    {
        return schedules_;
    }
    const std::vector<ScheduleProfile> &profiles() const
    {
        return kernel_.profiles();
    }

    /** Simulated machine cycles spent in the sample phase. */
    std::uint64_t
    samplePhaseCycles() const
    {
        return kernel_.samplePhaseCycles();
    }

    /** Measured symbios-phase WS per sampled machine schedule. */
    const std::vector<double> &
    symbiosWs() const
    {
        return kernel_.symbiosWs();
    }

    /** @name Summary statistics over the symbios runs @{ */
    double bestWs() const { return kernel_.bestWs(); }
    double worstWs() const { return kernel_.worstWs(); }
    /** The oblivious expectation. */
    double averageWs() const { return kernel_.averageWs(); }
    /** @} */

    /** Index of the candidate the predictor picks from the profiles. */
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
     * period plus the sampled machine WS.
     */
    std::vector<CoscheduleSample> coscheduleSamples() const;

    /**
     * The recipe every phase runs @p schedules with: private
     * calibrated mixes on private machines, each candidate warmed by
     * its allocation's warm-up (shared through one snapshot per
     * allocation unless SimConfig::snapshot is off). The recipe refers
     * to @p schedules, which must outlive it.
     */
    ParallelScheduleRunner::SweepSpec
    sweep(const std::vector<MachineSchedule> &schedules) const;

    /**
     * Register everything measured under @p group: one "candidate<i>"
     * subtree per sampled machine schedule, a "machine" subtree with
     * the stats machine's shared-L2 and per-core cache counters (plus
     * each core's best-run pipeline counters under "core<k>.perf"),
     * one "policy.<name>" subtree per evaluated policy, and the
     * best/worst/average summary. Stats bind to this experiment's
     * storage, so it must outlive any dump.
     */
    void publishStats(const stats::Group &group) const;

    /**
     * Append the machine-level scheduler decisions to @p trace:
     * "machine_sample_candidate" per profiled schedule, then
     * "machine_predictor_vote" per predictor, "machine_symbios_result"
     * per candidate and "allocation_policy" per evaluated policy.
     */
    void recordTrace(stats::EventTrace &trace) const;

  private:
    /** Engine quantum for this experiment in simulated cycles. */
    std::uint64_t timesliceCycles() const;

    /** Rebuild the calibrated mix a private task runs on. */
    JobMix freshMix() const;

    /**
     * The neutral warmup machine schedule for an allocation: each core
     * cycles its own group once, so no candidate is charged compulsory
     * misses for its placement.
     */
    MachineSchedule warmupFor(const Partition &allocation) const;

    MachineExperimentSpec spec_;
    SimConfig config_;
    MachineParams machineParams_; ///< the (possibly hetero) CMP built
    MachineScheduleSpace space_;
    JobMix mix_; ///< calibrated prototype; tasks clone its soloIpc
    ParallelScheduleRunner runner_;
    /** Warm states the sample phase leaves for the symbios phase. */
    WarmSnapshots warmed_;

    /** @name Heterogeneity context for allocation policies @{ */
    std::vector<int> coreClasses_; ///< empty when homogeneous
    std::vector<std::vector<double>> soloIpcByClass_;
    /** @} */

    std::vector<MachineSchedule> schedules_;
    SosKernel kernel_; ///< owns profiles, symbios WS, phase cycles

    std::vector<PolicyResult> policyResults_;

    /** @name Best-candidate replay for live machine stats @{ */
    std::unique_ptr<Machine> statsMachine_;
    MachineEngine::MachineRunResult bestRun_;
    int bestIndex_ = -1;
    /** @} */
};

} // namespace sos

#endif // SOS_SIM_MACHINE_EXPERIMENT_HH
