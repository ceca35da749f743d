/**
 * @file
 * Jobs and schedulable thread units.
 *
 * A Job is one workload instance. Sequential jobs have one thread;
 * parallel jobs (the paper's ARRAY) have several threads that share an
 * address space and a barrier domain but are scheduled as individual
 * units -- whether to coschedule them is precisely the decision the
 * paper studies in Section 6. Adaptive jobs (mt_* in Section 7) can
 * be re-spawned with any thread count, modelling an MTA-style compiler
 * that adapts to however many hardware contexts the scheduler grants.
 */

#ifndef SOS_SCHED_JOB_HH
#define SOS_SCHED_JOB_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/sync_domain.hh"
#include "cpu/thread_binding.hh"
#include "trace/trace_generator.hh"
#include "trace/workload_profile.hh"

namespace sos {

/** One workload instance owned by the system. */
class Job
{
  public:
    /**
     * Create a job.
     *
     * @param id Unique job id (also its ASID).
     * @param profile Workload model (must outlive the job).
     * @param seed Base seed; threads derive their own streams from it.
     * @param num_threads Software threads (>= 1).
     * @param adaptive True if the thread count may be changed by the
     *        scheduler (hierarchical symbiosis).
     */
    Job(std::uint32_t id, const WorkloadProfile &profile,
        std::uint64_t seed, int num_threads = 1, bool adaptive = false);

    /**
     * Fork copy: clones the generators (mid-stream) and the sync
     * domain along with all progress accounting, so the copy resumes
     * exactly where @p other stood.
     */
    Job(const Job &other);

    std::uint32_t id() const { return id_; }
    const std::string &name() const { return profile_->name; }
    const WorkloadProfile &profile() const { return *profile_; }
    std::uint16_t asid() const { return static_cast<std::uint16_t>(id_); }

    int numThreads() const { return static_cast<int>(threads_.size()); }
    bool adaptive() const { return adaptive_; }
    bool parallel() const { return numThreads() > 1 || adaptive_; }

    /** Instruction stream of one thread. */
    TraceGenerator &generator(int thread);

    /** Barrier domain; nullptr when the job never synchronizes. */
    SyncDomain *syncDomain() { return sync_.get(); }

    /** What a hardware context borrows to run thread @p thread. */
    ThreadBinding binding(int thread);

    /**
     * Re-spawn the job with a different thread count (adaptive jobs
     * only). Progress already made is kept; generators restart.
     */
    void setThreadCount(int num_threads);

    /** @name Progress accounting @{ */
    void addRetired(std::uint64_t instructions);
    std::uint64_t retired() const { return retired_; }

    /** Cycles during which the job had at least one thread scheduled. */
    void addResidentCycles(std::uint64_t cycles);
    std::uint64_t residentCycles() const { return residentCycles_; }
    /** @} */

    /** @name Open-system bookkeeping (Section 9) @{ */
    std::uint64_t arrivalCycle = 0;
    std::uint64_t completionCycle = 0;
    std::uint64_t sizeInstructions = 0; ///< retire this many, then done
    bool finished = false;
    /** @} */

    /**
     * Reference IPC of the job running alone with its current thread
     * count (the weighted-speedup denominator); set by the Calibrator.
     */
    double soloIpc = 0.0;

  private:
    void spawnThreads(int num_threads);

    std::uint32_t id_;
    const WorkloadProfile *profile_;
    std::uint64_t seed_;
    bool adaptive_;
    std::vector<std::unique_ptr<TraceGenerator>> threads_;
    std::unique_ptr<SyncDomain> sync_;
    std::uint64_t retired_ = 0;
    std::uint64_t residentCycles_ = 0;
};

/** Reference to one schedulable unit: a specific thread of a job. */
struct ThreadRef
{
    Job *job = nullptr;
    int thread = 0;

    bool
    operator==(const ThreadRef &other) const
    {
        return job == other.job && thread == other.thread;
    }
};

} // namespace sos

#endif // SOS_SCHED_JOB_HH
