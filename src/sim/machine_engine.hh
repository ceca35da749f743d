/**
 * @file
 * The timeslice engine: binds scheduler decisions to a whole Machine.
 *
 * Each timeslice the jobscheduler names, per core, the thread units
 * to run. For every core the engine diffs that set against the
 * resident one, so units staying resident keep their hardware context
 * and pipeline state (the "warmstart" effect of Section 8 -- under
 * partial swap only the replaced job cold-starts), swaps the rest,
 * runs the core for the quantum and credits retired instructions to
 * jobs. Closed sweeps feed it a MachineSchedule; the open system feeds
 * it one slice at a time through runSlice().
 *
 * Within every timeslice the cores are stepped sequentially in
 * core-index order (the determinism contract Machine documents), so
 * cores interleave on the shared L2 at timeslice granularity --
 * coarse, but deterministic and faithful to the paper's OS-level
 * view, where the scheduler only observes counters at quantum
 * boundaries anyway.
 *
 * Wall-clock time is per-core time: all cores run the same quantum
 * concurrently, so a run of T timeslices costs T * quantum machine
 * cycles, and weighted speedup divides machine-wide progress by that
 * single interval.
 */

#ifndef SOS_SIM_MACHINE_ENGINE_HH
#define SOS_SIM_MACHINE_ENGINE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cpu/machine.hh"
#include "cpu/sampling.hh"
#include "sched/job.hh"
#include "sched/jobmix.hh"
#include "sched/machine_schedule.hh"

namespace sos {

/** Runs timeslices and machine schedules on the Machine it owns. */
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

        /** The machine's lifetime memory counters at the run's end. */
        MemoryCounters memory;

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
     * Build a machine of @p params and drive every core at the
     * fidelity @p sample sets (cpu/sampling.hh; the default is full
     * detail).
     */
    MachineEngine(const MachineParams &params,
                  std::uint64_t timeslice_cycles,
                  const SampleWindows &sample = SampleWindows{});

    /** Where a fork finds its copy of each resident unit's job. */
    using JobMap = std::function<Job *(const Job &)>;

    /**
     * Fork @p other's warm state: a value copy of its machine, each
     * occupied context still holding its unit, whose job is now
     * job_of(original job) -- the caller's copy of it. The cores
     * already carry the copied pipeline state of every unit, so
     * nothing is squashed or re-attached: each context is rebound to
     * its job's copy (SmtCore::rebindThread), and the fork runs on
     * exactly as @p other would. Reads @p other only, so concurrent
     * workers may fork one warm engine.
     */
    MachineEngine(const MachineEngine &other, const JobMap &job_of);

    std::uint64_t timesliceCycles() const { return timeslice_; }

    /** The machine this engine drives. */
    const Machine &machine() const { return *machine_; }

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

        /** Each core's counters over the quantum, indexed by core. */
        std::vector<PerfCounters> perCore;

        /**
         * Retired instructions per unit, indexed by core and then
         * ordered as that core's input units.
         */
        std::vector<std::vector<std::uint64_t>> unitRetired;
    };

    /**
     * Run one timeslice: core k runs @p units[k]. Cores step in
     * core-index order, the documented determinism contract for
     * sharing the L2. On each core, units that are leaving are
     * detached first; then each entering unit, in input order, takes
     * the lowest free context. Units already resident keep their
     * context. A core with no units (or past the end of @p units)
     * still runs the quantum and evicts its residents. Jobs are
     * credited with their units' retired instructions, and with the
     * quantum as resident cycles once per distinct job.
     */
    SliceResult runSlice(const std::vector<std::vector<ThreadRef>> &units);

    /**
     * Run @p schedule once, for the longest of @p checkpoints quanta:
     * every timeslice, core k runs tuple t of its per-core schedule.
     * Result c is the run's accumulators (and the machine's memory
     * counters) after checkpoints[c] timeslices, which is exactly what
     * a separate run of that length from the same state would measure:
     * a run only sums per-slice results. Checkpoints may come in any
     * order and repeat. The
     * schedule's allocation must index into @p mix. Jobs accumulate
     * progress as under runSlice (retired instructions and resident
     * cycles), so a warmup run followed by a measured run charges the
     * measured interval only with its own work.
     */
    std::vector<MachineRunResult>
    runSchedule(JobMix &mix, const MachineSchedule &schedule,
                const std::vector<std::uint64_t> &checkpoints);

    /** Detach any resident threads of one job from every core. */
    void evictJob(const Job *job);

    /** One occupied hardware context. */
    struct Resident
    {
        int core = 0;
        int slot = 0;
        ThreadRef unit;
    };

    /** Every occupied context, by core and then slot (read-only). */
    std::vector<Resident> residents() const;

    int numCores() const { return static_cast<int>(cores_.size()); }

  private:
    /** One core's context-slot table and fidelity controller. */
    struct Core
    {
        Core(SmtCore &smt, const SampleWindows &sample)
            : smt(&smt), sampler(smt, sample)
        {
        }

        SmtCore *smt;
        SamplingController sampler;
        /** The unit each context holds; a null job marks it free. */
        std::array<ThreadRef, MaxContexts> slots{};
    };

    /**
     * Run core @p core for one quantum with @p units resident, adding
     * into @p counters, @p unit_retired (one entry per unit) and
     * @p tally.
     */
    void runCore(Core &core, const std::vector<ThreadRef> &units,
                 PerfCounters &counters,
                 std::vector<std::uint64_t> &unit_retired,
                 SamplingTally &tally);

    /** Behind a pointer: cores_ and the controllers point into it. */
    std::unique_ptr<Machine> machine_;
    std::uint64_t timeslice_;
    std::vector<Core> cores_;

    /** Per-core scratch: each unit's context (hoisted allocation). */
    std::vector<int> unitSlotScratch_;
};

} // namespace sos

#endif // SOS_SIM_MACHINE_ENGINE_HH
