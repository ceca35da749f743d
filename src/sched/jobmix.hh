/**
 * @file
 * A jobmix: the set of runnable jobs presented to the jobscheduler.
 */

#ifndef SOS_SCHED_JOBMIX_HH
#define SOS_SCHED_JOBMIX_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sched/job.hh"

namespace sos {

/**
 * Owns the jobs of one experiment and exposes the flat list of
 * schedulable units (threads) the schedule's job identifiers index.
 * Unit order follows insertion order, matching the paper's labels
 * (job 0 is the first workload listed in Table 1, and the two threads
 * of a parallel job are adjacent units).
 */
class JobMix
{
  public:
    /** @param seed Base seed; jobs derive deterministic streams. */
    explicit JobMix(std::uint64_t seed = 0x50505050ULL) : seed_(seed) {}

    /**
     * Fork copy: deep-copies every job mid-stream (see Job's copy
     * constructor).  Unit indices, job ids and ASIDs are preserved, so
     * a schedule valid for @p other is valid for the copy.
     */
    JobMix(const JobMix &other);

    JobMix(JobMix &&) = default;
    JobMix &operator=(JobMix &&) = default;

    /** Add a sequential (single-thread) job. */
    Job &addJob(const std::string &workload);

    /** Add a parallel job whose threads are separate units. */
    Job &addParallelJob(const std::string &workload, int threads);

    /**
     * Add an adaptive multithreaded job (Section 7); it appears as one
     * unit per current thread, and the hierarchical scheduler may call
     * setThreadCount() on it between timeslices.
     */
    Job &addAdaptiveJob(const std::string &workload);

    /** The base seed every job's streams derive from. */
    std::uint64_t seed() const { return seed_; }

    int numJobs() const { return static_cast<int>(jobs_.size()); }
    Job &job(int index) { return *jobs_.at(static_cast<std::size_t>(index)); }
    const Job &
    job(int index) const
    {
        return *jobs_.at(static_cast<std::size_t>(index));
    }

    /** Number of schedulable units (threads across all jobs). */
    int numUnits() const;

    /** The unit with the given flat index. */
    ThreadRef unit(int index) const;

    /** Display name of a unit, e.g. "ARRAY#8.1" for its second thread. */
    std::string unitName(int index) const;

    /** All units in order. */
    std::vector<ThreadRef> units() const;

  private:
    Job &addInternal(const std::string &workload, int threads,
                     bool adaptive);

    std::uint64_t seed_;
    std::vector<std::unique_ptr<Job>> jobs_;
};

} // namespace sos

#endif // SOS_SCHED_JOBMIX_HH
