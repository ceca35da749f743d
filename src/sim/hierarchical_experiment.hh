/**
 * @file
 * Hierarchical symbiosis experiment (Section 7, Figure 4).
 *
 * With adaptive multithreaded jobs in the mix, SOS chooses at two
 * levels: which jobs to coschedule, and how many hardware contexts to
 * grant each adaptive job. A candidate is therefore an
 * (AllocationPlan, Schedule) pair; the sample phase profiles each
 * candidate, Score picks one, and the symbios phase measures what
 * every candidate would have delivered -- reproducing the paper's
 * improvement-over-average and improvement-over-worst bars.
 */

#ifndef SOS_SIM_HIERARCHICAL_EXPERIMENT_HH
#define SOS_SIM_HIERARCHICAL_EXPERIMENT_HH

#include <cstdint>
#include <vector>

#include <map>
#include <string>
#include <utility>

#include "core/allocation.hh"
#include "core/predictor.hh"
#include "core/schedule_profile.hh"
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

/** One (allocation, schedule) choice available to hierarchical SOS. */
struct HierarchicalCandidate
{
    AllocationPlan plan;
    Schedule schedule;
    ScheduleProfile profile; ///< filled by the sample phase
    double symbiosWs = 0.0;  ///< filled by the symbios validation
};

/** Runs one Section 7 mix at one SMT level. */
class HierarchicalExperiment
{
  public:
    /**
     * @param max_candidates Cap on sampled (plan, schedule) pairs;
     *        schedules are spread evenly across allocation plans.
     */
    HierarchicalExperiment(const HierarchicalSpec &spec,
                           const SimConfig &config,
                           int max_candidates = 24);

    /** Sample every candidate, then measure its symbios WS. */
    void run(std::uint64_t symbios_cycles = 0);

    const HierarchicalSpec &spec() const { return spec_; }
    const std::vector<HierarchicalCandidate> &candidates() const
    {
        return candidates_;
    }

    /** Simulated cycles spent in the sample phase. */
    std::uint64_t
    samplePhaseCycles() const
    {
        return kernel_.samplePhaseCycles();
    }

    double bestWs() const { return kernel_.bestWs(); }
    double worstWs() const { return kernel_.worstWs(); }
    double averageWs() const { return kernel_.averageWs(); }

    /** Candidate index Score picks from the sample profiles. */
    int
    scoreBestIndex() const
    {
        return kernel_.predictedIndex(*makeScorePredictor());
    }

    /** Symbios WS of the Score-selected candidate. */
    double
    scoreWs() const
    {
        return kernel_.wsOfPredictor(*makeScorePredictor());
    }

    /** Figure 4 bars: Score's % improvement over the average/worst. */
    double improvementOverAveragePct() const;
    double improvementOverWorstPct() const;

    /**
     * The recipe of the one sweep both phases read (each candidate
     * lifted to a 1-core MachineSchedule): candidate i's mix realizes
     * its allocation plan; no warm-up.
     */
    ParallelScheduleRunner::SweepSpec sweep() const;

    /**
     * Register the measured candidates under @p group: a
     * "candidate<i>" subtree per (plan, schedule) pair plus the
     * Figure 4 summary. Stats bind to this experiment's storage; call
     * after run() and keep the experiment alive for any dump.
     */
    void publishStats(const stats::Group &group) const;

    /**
     * Append the sample candidates, Score's "symbios_pick" and the
     * per-candidate "symbios_result" events to @p trace, in candidate
     * index order.
     */
    void recordTrace(stats::EventTrace &trace) const;

  private:
    /** Fresh mix with @p plan applied and soloIpc references set. */
    JobMix mixForPlan(const AllocationPlan &plan) const;

    HierarchicalSpec spec_;
    SimConfig config_;
    ParallelScheduleRunner runner_;
    /**
     * Solo-IPC references for every (workload, threads) combination
     * any allocation plan uses, measured once up front so the
     * parallel sweep tasks only read.
     */
    std::map<std::pair<std::string, int>, double> soloIpc_;
    std::vector<HierarchicalCandidate> candidates_;
    SosKernel kernel_; ///< runs both phases; results copied back
};

} // namespace sos

#endif // SOS_SIM_HIERARCHICAL_EXPERIMENT_HH
