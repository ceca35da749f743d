/**
 * @file
 * Machine-level schedules: one coschedule sequence per core of a CMP.
 *
 * A machine schedule for Jm(X, C, Y, Z) -- X runnable jobs on C SMT
 * cores of multithreading level Y swapping Z jobs per timeslice --
 * has two nested choices:
 *
 *  1. a thread-to-core *allocation*: an unordered partition of the X
 *     jobs into C groups of X/C (the cores are identical, so the
 *     partition is unordered and canonical partition order is the
 *     dedup representative);
 *
 *  2. per core, an ordinary single-core schedule (Schedule) over its
 *     group, in the group's global job indices.
 *
 * Distinct machine schedules therefore number
 *   equalPartitionCount(X, X/C) * ScheduleSpace(X/C, Y, Z)^C
 * e.g. Jm(8,2,2,2): 35 * 3 * 3 = 315, and Jm(8,4,2,2): 105 * 1 = 105
 * -- the spaces the multicore figure sweeps.
 *
 * On a heterogeneous machine the cores are only interchangeable
 * within equivalence classes of identical configuration (see
 * MachineParams::coreClasses), so an allocation additionally chooses
 * which groups land on which class: distinct allocations number
 *   equalPartitionCount(X, X/C) * C! / prod_c(n_c!)
 * where n_c counts the cores of class c -- e.g. 8 jobs on a 2+2
 * big.LITTLE machine: 105 * 4!/(2!*2!) = 630 allocations.
 */

#ifndef SOS_SCHED_MACHINE_SCHEDULE_HH
#define SOS_SCHED_MACHINE_SCHEDULE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/combinatorics.hh"
#include "sched/schedule.hh"

namespace sos {

class Rng;

/** One machine schedule: an allocation plus per-core schedules. */
class MachineSchedule
{
  public:
    MachineSchedule() = default;

    /**
     * @param allocation One group of global job indices per core, in
     *        core order (groups need not be canonical; each must be
     *        non-empty and the groups disjoint).
     * @param per_core One Schedule per core over that core's group,
     *        aligned with @p allocation.
     */
    MachineSchedule(Partition allocation,
                    std::vector<Schedule> per_core);

    /**
     * Heterogeneity-aware constructor: @p core_classes gives each
     * core's equivalence class (see MachineParams::coreClasses).
     * Cores are only interchangeable within a class, so the canonical
     * key sorts per-core schedules within class partitions instead of
     * globally.  An empty or single-class vector reproduces the
     * homogeneous key byte-for-byte.
     */
    MachineSchedule(Partition allocation, std::vector<Schedule> per_core,
                    const std::vector<int> &core_classes);

    /**
     * The 1-core lift of a single-core schedule: one core running
     * @p one_core over every unit it names -- how the paper's SMT
     * core runs on the machine-level engine.
     */
    explicit MachineSchedule(const Schedule &one_core);

    int
    numCores() const
    {
        return static_cast<int>(perCore_.size());
    }

    /** Global job indices assigned to each core, in core order. */
    const Partition &allocation() const { return allocation_; }

    const Schedule &
    coreSchedule(int core) const
    {
        return perCore_.at(static_cast<std::size_t>(core));
    }

    /**
     * Readable per-core label, e.g. "c0[01_23]|c1[45_67]" -- reflects
     * the actual core assignment. A 1-core schedule carries its
     * core's label alone ("012_345"), as the paper's single SMT core
     * labels its schedules.
     */
    const std::string &label() const { return label_; }

    /**
     * Canonical identity key. Identical cores are interchangeable, so
     * the key sorts the (group, schedule) pairs within each core
     * class; two machine schedules that differ only by a permutation
     * of same-class cores share a key.  On a homogeneous machine that
     * is full core-permutation invariance ("M:" + sorted schedule
     * keys); heterogeneous keys tag every part with its core class.
     */
    const std::string &key() const { return key_; }

    bool valid() const { return !perCore_.empty(); }

    /** Timeslices of one full period (max over the cores' periods). */
    std::uint64_t periodTimeslices() const;

  private:
    Partition allocation_;
    std::vector<Schedule> perCore_;
    std::string label_;
    std::string key_;
};

/** The set of distinct machine schedules for Jm(X, C, Y, Z). */
class MachineScheduleSpace
{
  public:
    /**
     * @param num_jobs X, the runnable jobs.
     * @param num_cores C, cores of the machine (C must divide X).
     * @param level Y, per-core multithreading level.
     * @param swap Z, jobs replaced per core per timeslice.
     */
    MachineScheduleSpace(int num_jobs, int num_cores, int level,
                         int swap);

    /**
     * Heterogeneity-aware space: @p core_classes gives each core's
     * equivalence class (any labels; normalised internally to
     * first-appearance order, as MachineParams::coreClasses emits).
     * Allocations then count distinct *class-labelled* partitions --
     * moving a group between unlike cores is a new schedule -- and
     * enumeration, sampling and dedup follow the class-aware keys.
     * An empty or single-class vector is exactly the homogeneous
     * space, bit-identical keys and RNG stream included.
     */
    MachineScheduleSpace(int num_jobs, int num_cores, int level,
                         int swap, std::vector<int> core_classes);

    int numJobs() const { return numJobs_; }
    int numCores() const { return numCores_; }
    int level() const { return level_; }
    int swap() const { return swap_; }

    /** Per-core class ids; empty for a homogeneous space. */
    const std::vector<int> &coreClasses() const { return classes_; }

    /** True when the space distinguishes at least two core classes. */
    bool heterogeneous() const { return !classes_.empty(); }

    /** Jobs per core, X/C. */
    int groupSize() const { return groupSize_; }

    /** Exact distinct count (saturates at 2^64-1 for huge spaces). */
    std::uint64_t distinctCount() const;

    /** Timeslices needed to run one full period of any schedule. */
    std::uint64_t periodTimeslices() const;

    /**
     * Enumerate every distinct machine schedule, allocations in
     * canonical partition order. fatal() beyond @p limit schedules.
     */
    std::vector<MachineSchedule>
    enumerateAll(std::uint64_t limit = 100000) const;

    /** Draw one machine schedule uniformly at random. */
    MachineSchedule random(Rng &rng) const;

    /**
     * Draw up to @p count distinct machine schedules: the whole space
     * when it is small, otherwise distinct uniform samples (dedup on
     * the canonical key).
     */
    std::vector<MachineSchedule> sample(int count, Rng &rng) const;

    /**
     * All machine schedules with the given fixed allocation (the
     * cartesian product of each core's schedule choices). Used by
     * allocation policies, which choose the partition and then sweep
     * or sample only the per-core schedules.
     */
    std::vector<MachineSchedule>
    schedulesForAllocation(const Partition &allocation,
                           std::uint64_t limit = 100000) const;

    /** One random machine schedule with the given fixed allocation. */
    MachineSchedule allocationRandom(const Partition &allocation,
                                     Rng &rng) const;

  private:
    /** Jobs of each class's cores, ascending core index per class. */
    std::vector<std::vector<int>> classCores() const;

    /** Turn per-group class labels into a per-core allocation. */
    Partition allocationFromLabels(const Partition &groups,
                                   const std::vector<int> &labels) const;

    int numJobs_;
    int numCores_;
    int level_;
    int swap_;
    int groupSize_;
    std::vector<int> classes_; ///< per-core class id; empty = uniform
};

} // namespace sos

#endif // SOS_SCHED_MACHINE_SCHEDULE_HH
