/**
 * @file
 * The timeslice engine: binds scheduler decisions to the SMT core.
 *
 * Each timeslice the jobscheduler names a set of thread units; the
 * engine diffs that set against the currently resident one, so that
 * units staying resident keep their hardware context and pipeline
 * state (the "warmstart" effect of Section 8 -- under partial swap
 * only the replaced job cold-starts), swaps the rest, runs the core
 * for the quantum, and credits retired instructions to jobs.
 * MachineEngine is its only driver: it steps one engine per core, for
 * closed schedules and open-system slices alike.
 */

#ifndef SOS_SIM_TIMESLICE_ENGINE_HH
#define SOS_SIM_TIMESLICE_ENGINE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "cpu/smt_core.hh"
#include "sched/job.hh"
#include "cpu/sampling.hh"

namespace sos {

/** Drives one SmtCore timeslice by timeslice. */
class TimesliceEngine
{
  public:
    /** Outcome of one timeslice. */
    struct SliceResult
    {
        PerfCounters counters;
        /** Retired instructions per unit, ordered as the input set. */
        std::vector<std::uint64_t> unitRetired;
        /** Sampled-mode windows of the quantum (zero at full detail). */
        SamplingTally sampling;
    };

    TimesliceEngine(SmtCore &core, std::uint64_t timeslice_cycles);

    /**
     * Run one timeslice with the given units resident. Units already
     * on the core stay put; others are swapped in/out.
     */
    SliceResult runTimeslice(const std::vector<ThreadRef> &units);

    /** Detach everything (e.g. before re-spawning adaptive jobs). */
    void evictAll();

    /** The units currently resident, as (context slot, unit) pairs. */
    std::vector<std::pair<int, ThreadRef>> residentUnits() const;

    /**
     * Seed a fresh engine with the resident set of a snapshot fork:
     * the borrowed core already carries the (copied) pipeline state of
     * every unit, so each slot is marked occupied and the core's
     * context is rebound to the fork's own generators -- nothing is
     * squashed or re-attached.  The engine must have no occupied slots
     * and the core's active slots must match @p resident exactly.
     */
    void
    adoptResident(const std::vector<std::pair<int, ThreadRef>> &resident);

    /** Detach any resident threads of one job (before destroying it). */
    void evictJob(const Job *job);

    std::uint64_t timesliceCycles() const { return timeslice_; }
    void setTimesliceCycles(std::uint64_t cycles);

    /**
     * Configure sampled simulation for this engine's quanta (default:
     * disabled, in which case runTimeslice is exactly the full-detail
     * path -- not an approximation of it).
     */
    void setSampling(const SampleWindows &sample)
    {
        sampler_.setSample(sample);
    }

  private:
    struct Slot
    {
        bool occupied = false;
        ThreadRef unit;
    };

    SmtCore &core_;
    std::uint64_t timeslice_;
    SamplingController sampler_;
    std::array<Slot, MaxContexts> slots_;

    /** Per-timeslice scratch (hoisted allocation). */
    std::vector<int> unitSlotScratch_;
};

} // namespace sos

#endif // SOS_SIM_TIMESLICE_ENGINE_HH
