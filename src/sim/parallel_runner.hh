/**
 * @file
 * Deterministic parallel schedule sweeps.
 *
 * Profiling a candidate is a pure function of (jobmix recipe, machine
 * configuration, warm-up, schedule): each task measures on a private
 * fork of its warm-up group's warm engine and mix (with no warm-up,
 * on a fresh MachineEngine + JobMix), so every candidate starts from
 * bit-identical machine state and no mutable state is shared. Every closed-system
 * experiment runs its candidates here: the paper's single SMT core is
 * the 1-core case (hierarchical lifts its Schedules into 1-core
 * MachineSchedules), a CMP the C-core case.
 *
 * Determinism contract (see DESIGN.md):
 *  - results are a function of the task index only, never of worker
 *    count, scheduling order, or SOS_JOBS -- 1 worker and 64 workers
 *    produce bit-identical profiles;
 *  - each task's workload generators derive their own RNG streams
 *    from the mix seed (per-schedule streams, no stream is shared or
 *    advanced across tasks);
 *  - every candidate measures from the state its own warm-up would
 *    reach (tests/test_snapshot.cpp), so candidates are compared
 *    from equal machine state.
 */

#ifndef SOS_SIM_PARALLEL_RUNNER_HH
#define SOS_SIM_PARALLEL_RUNNER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/thread_pool.hh"
#include "cpu/machine.hh"
#include "sched/jobmix.hh"
#include "sched/machine_schedule.hh"
#include "sim/machine_engine.hh"

namespace sos {

/** Fans independent per-candidate simulations across a thread pool. */
class ParallelScheduleRunner
{
  public:
    /** Everything one profiling task measures up to one length. */
    struct ScheduleRun
    {
        MachineEngine::MachineRunResult run;
        double ws = 0.0; ///< weighted speedup over the run
    };

    /** Describes how each task rebuilds its private state. */
    struct SweepSpec
    {
        /**
         * Build the (calibrated) jobmix for one task. Candidates that
         * share a warm-up schedule must get identical mixes: the
         * runner warms the first one and forks the rest.
         */
        std::function<JobMix(std::size_t index)> makeMix;

        /** The machine each task builds privately. */
        MachineParams machine;

        /** Engine quantum in simulated cycles. */
        std::uint64_t timesliceCycles = 0;

        /**
         * Warm-up schedule of candidate @p index, run for one period
         * before measuring. Candidates are grouped by their exact
         * warm-up schedule (its per-core label -- never the
         * core-permutation-invariant key, which would fork a warm
         * engine with the groups on the wrong cores); one engine is
         * warmed per group and every candidate measures on a private
         * fork of it (the MachineEngine fork constructor). Unset:
         * every candidate starts from a fresh machine.
         */
        std::function<MachineSchedule(std::size_t index)> warmup;

        /**
         * Sampled-simulation windows applied to every task's engine
         * (and the warm-up engines). Disabled by default; see
         * cpu/sampling.hh. A warm-up's sampling tally is dropped: the
         * manifest's sampling group counts measured intervals only.
         */
        SampleWindows sample;
    };

    /**
     * Own a pool of @p jobs workers for the runner's lifetime.
     *
     * @param jobs Worker threads; 0 resolves via SOS_JOBS / hardware
     *        concurrency (see resolveJobs()).
     */
    explicit ParallelScheduleRunner(int jobs = 0);

    /** Run on @p pool, which must outlive the runner. */
    explicit ParallelScheduleRunner(ThreadPool &pool);

    /** The pool every batch of this runner runs on. */
    ThreadPool &pool() const { return *pool_; }

    /**
     * Profile schedules[i] on private state built from @p sweep, in
     * one pass per candidate to the longest of checkpoints(i):
     * results[i][c] is candidate i measured over checkpoints(i)[c]
     * quanta, bit-identical to a separate run of that length (see
     * MachineEngine::runSchedule). A caller that needs one length
     * passes {n}.
     */
    std::vector<std::vector<ScheduleRun>>
    runAll(const SweepSpec &sweep,
           const std::vector<MachineSchedule> &schedules,
           const std::function<std::vector<std::uint64_t>(std::size_t)>
               &checkpoints) const;

  private:
    std::unique_ptr<ThreadPool> owned_; ///< null when the pool is borrowed
    ThreadPool *pool_;
};

} // namespace sos

#endif // SOS_SIM_PARALLEL_RUNNER_HH
