/**
 * @file
 * Schedules and the schedule space of a jobmix.
 *
 * Following the paper's Section 3, a schedule for the experiment tuple
 * J(X, Y, Z) -- X runnable jobs, multithreading level Y, Z jobs
 * swapped per timeslice -- is a covering, circular sequence of
 * coschedule tuples in which every job appears equally often.
 *
 * Two representations cover the paper's cases exactly:
 *
 *  - Z == Y and Y | X (full swap): an unordered partition of the X
 *    jobs into X/Y tuples cycled round-robin. Distinct schedules:
 *    X! / ((Y!)^(X/Y) (X/Y)!), e.g. 10 for Jsb(6,3,3).
 *
 *  - otherwise (rotating / "warmstart" swap): a circular order of the
 *    X jobs; the running set is a window of Y advanced by Z each
 *    timeslice (FIFO replacement of the oldest Z residents).
 *    Schedules are identical up to rotation and reflection of the
 *    order, giving (X-1)!/2 distinct schedules, e.g. 60 for
 *    Jsb(6,3,1) and 12 for Jsb(5,2,2).
 *
 * Both match the paper's Table 2 counts; tests verify every row.
 */

#ifndef SOS_SCHED_SCHEDULE_HH
#define SOS_SCHED_SCHEDULE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/combinatorics.hh"

namespace sos {

class Rng;

/** One covering schedule: the tuple sequence of a full period. */
class Schedule
{
  public:
    Schedule() = default;

    /** Build a full-swap schedule from a canonical partition. */
    static Schedule fromPartition(const Partition &partition);

    /**
     * Build a rotating schedule: window of @p window jobs over the
     * circular @p order, advanced by @p step per timeslice.
     */
    static Schedule fromRotation(const std::vector<int> &order, int window,
                                 int step);

    /** Coschedule tuple for a given timeslice (wraps at the period). */
    const std::vector<int> &
    tupleAt(std::uint64_t timeslice) const
    {
        return tuples_[timeslice % tuples_.size()];
    }

    /** Tuples in one period. */
    std::uint64_t
    periodTimeslices() const
    {
        return tuples_.size();
    }

    /** All tuples of one period, in order. */
    const std::vector<std::vector<int>> &tuples() const { return tuples_; }

    /** Number of tuples each job appears in per period. */
    int appearancesPerPeriod(int job) const;

    /** Paper-style label, e.g. "012_345". */
    const std::string &label() const { return label_; }

    /** Canonical identity key (schedules equal up to tuple order). */
    const std::string &key() const { return key_; }

    bool valid() const { return !tuples_.empty(); }

  private:
    std::vector<std::vector<int>> tuples_;
    std::string label_;
    std::string key_;
};

/** The set of distinct schedules for an experiment J(X, Y, Z). */
class ScheduleSpace
{
  public:
    /**
     * @param num_jobs X, the runnable jobs.
     * @param level Y, the multithreading level (tuple size).
     * @param swap Z, jobs replaced per timeslice (1 <= Z <= Y).
     */
    ScheduleSpace(int num_jobs, int level, int swap);

    int numJobs() const { return numJobs_; }
    int level() const { return level_; }
    int swap() const { return swap_; }

    /** True when the space is partition-based (Z == Y, Y | X). */
    bool fullSwap() const { return fullSwap_; }

    /** Exact number of distinct schedules (paper Table 2 column 2). */
    std::uint64_t distinctCount() const;

    /** Timeslices needed to run one full period of any schedule. */
    std::uint64_t periodTimeslices() const;

    /**
     * Enumerate every distinct schedule. fatal() if the space holds
     * more than @p limit schedules.
     */
    std::vector<Schedule> enumerateAll(std::uint64_t limit = 100000) const;

    /**
     * enumerateAll() with job i relabelled to @p group[i] (X sorted
     * identifiers): one core's schedules over its share of a
     * machine's jobs.
     */
    std::vector<Schedule> enumerateOver(const std::vector<int> &group,
                                        std::uint64_t limit = 100000) const;

    /** Draw one schedule uniformly at random. */
    Schedule random(Rng &rng) const;

    /** random() relabelled through @p group, drawing the same numbers. */
    Schedule randomOver(const std::vector<int> &group, Rng &rng) const;

    /**
     * Draw up to @p count distinct schedules: the whole space when it
     * is small, otherwise distinct uniform samples (the paper samples
     * 10 in every experiment but Jsb(4,2,2), which has only 3).
     */
    std::vector<Schedule> sample(int count, Rng &rng) const;

  private:
    int numJobs_;
    int level_;
    int swap_;
    bool fullSwap_;
};

} // namespace sos

#endif // SOS_SCHED_SCHEDULE_HH
