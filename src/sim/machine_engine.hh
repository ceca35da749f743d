/**
 * @file
 * Timeslice driver for a whole Machine.
 *
 * A MachineEngine owns one TimesliceEngine per core of a Machine and
 * advances them in lock-step: within every timeslice the cores are
 * stepped sequentially in core-index order (the determinism contract
 * Machine documents), each running its own coschedule tuple -- from a
 * MachineSchedule for closed sweeps, or one open-system slice at a
 * time through runSlice(). Cores therefore interleave on the shared L2 at
 * timeslice granularity -- coarse, but deterministic and faithful to
 * the paper's OS-level view, where the scheduler only observes
 * counters at quantum boundaries anyway.
 *
 * Wall-clock time is per-core time: all cores run the same quantum
 * concurrently, so a run of T timeslices costs T * quantum machine
 * cycles, and weighted speedup divides machine-wide progress by that
 * single interval.
 */

#ifndef SOS_SIM_MACHINE_ENGINE_HH
#define SOS_SIM_MACHINE_ENGINE_HH

#include <cstdint>
#include <vector>

#include "cpu/machine.hh"
#include "cpu/sampling.hh"
#include "sched/jobmix.hh"
#include "sched/machine_schedule.hh"
#include "sim/timeslice_engine.hh"

namespace sos {

/** Runs machine schedules on a borrowed Machine. */
class MachineEngine
{
  public:
    /** What one machine-schedule run measured. */
    struct MachineRunResult
    {
        /** Counters summed over every core and timeslice. */
        PerfCounters total;

        /** Per-core counter totals, indexed by core. */
        std::vector<PerfCounters> perCore;

        /** Retired instructions per mix job (global job indices). */
        std::vector<std::uint64_t> jobRetired;

        /** Machine-wide IPC per timeslice (summed over cores). */
        std::vector<double> sliceIpc;

        /** Machine-wide mix imbalance per timeslice. */
        std::vector<double> sliceMixImbalance;

        /** Machine cycles elapsed (timeslices x quantum, per core). */
        std::uint64_t cycles = 0;

        /**
         * Sampled-mode windows summed over every core and timeslice;
         * the phase that reads the result records it (see
         * recordSampling).
         */
        SamplingTally sampling;
    };

    /**
     * Drive every core of @p machine at the fidelity @p sample sets
     * (cpu/sampling.hh; the default is full detail).
     */
    MachineEngine(Machine &machine, std::uint64_t timeslice_cycles,
                  const SampleWindows &sample = SampleWindows{});

    std::uint64_t timesliceCycles() const { return timeslice_; }

    /** What one machine timeslice measured. */
    struct SliceResult
    {
        /**
         * Counters summed over the cores, with cycles set to one
         * quantum: the cores run concurrently, so the summed per-core
         * cycle count is not the interval length.
         */
        PerfCounters machine;

        /** Sampled-mode windows summed over the cores. */
        SamplingTally sampling;

        /** Each core's own timeslice result, indexed by core. */
        std::vector<TimesliceEngine::SliceResult> cores;
    };

    /**
     * Run one timeslice: core k runs @p units[k]. Cores step in
     * core-index order, the documented determinism contract for
     * sharing the L2. A core with no units (or past the end of
     * @p units) still runs the quantum and evicts its residents.
     */
    SliceResult runSlice(const std::vector<std::vector<ThreadRef>> &units);

    /**
     * Run @p schedule once, for the longest of @p checkpoints quanta:
     * every timeslice, core k runs tuple t of its per-core schedule.
     * Result c is the run's accumulators after checkpoints[c]
     * timeslices, which is exactly what a separate run of that length
     * from the same state would measure: a run only sums per-slice
     * results. Checkpoints may come in any order and repeat. The
     * schedule's allocation must index into @p mix. Jobs accumulate
     * progress as under TimesliceEngine (retired instructions and
     * resident cycles), so a warmup run followed by a measured run
     * charges the measured interval only with its own work.
     */
    std::vector<MachineRunResult>
    runSchedule(JobMix &mix, const MachineSchedule &schedule,
                const std::vector<std::uint64_t> &checkpoints);

    /** Detach every unit from every core. */
    void evictAll();

    /** Detach any resident threads of one job from every core. */
    void evictJob(const Job *job);

    /** Core @p k's timeslice engine (snapshot capture/adoption). */
    TimesliceEngine &
    coreEngine(int k)
    {
        return engines_.at(static_cast<std::size_t>(k));
    }
    const TimesliceEngine &
    coreEngine(int k) const
    {
        return engines_.at(static_cast<std::size_t>(k));
    }

    int numCores() const { return static_cast<int>(engines_.size()); }

  private:
    Machine &machine_;
    std::uint64_t timeslice_;
    std::vector<TimesliceEngine> engines_;

};

} // namespace sos

#endif // SOS_SIM_MACHINE_ENGINE_HH
