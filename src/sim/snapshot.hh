/**
 * @file
 * Warm-state snapshots for schedule sweeps.
 *
 * Every candidate of a sample-phase sweep used to re-simulate the
 * same cache/predictor warmup before its measured interval.  A
 * MachineSnapshot captures the complete post-warmup state once --
 * machine (cores, caches, predictor, cycle counts), jobmix
 * (generators mid-stream, sync domains, progress accounting) and the
 * engine's residents() -- and every candidate then runs on a private
 * Fork of it.
 *
 * Determinism contract (DESIGN.md §5c): forking is semantics
 * preserving.  All simulator state is value-copied, and the only
 * cross-object references (core -> memory view -> shared L2, context
 * -> generator/sync domain) are rebound to the fork's own copies, so
 * a fork's measured interval is bit-identical to re-running the
 * warmup from scratch and then measuring.  Forking from a const
 * snapshot is read-only and therefore safe from concurrent sweep
 * workers.
 */

#ifndef SOS_SIM_SNAPSHOT_HH
#define SOS_SIM_SNAPSHOT_HH

#include <cstdint>
#include <vector>

#include "cpu/machine.hh"
#include "sched/jobmix.hh"
#include "sim/machine_engine.hh"

namespace sos {

/** Copyable warm state of (machine, jobmix, resident threads). */
class MachineSnapshot
{
  public:
    /**
     * Capture a warmed run: @p engine must drive @p machine and
     * @p mix must own every resident unit.
     */
    MachineSnapshot(const Machine &machine, const JobMix &mix,
                    const MachineEngine &engine);

    /** The residents point into mix_, so a snapshot stays put. */
    MachineSnapshot(const MachineSnapshot &) = delete;
    MachineSnapshot &operator=(const MachineSnapshot &) = delete;

    /** A private, runnable copy of the captured state. */
    class Fork
    {
      public:
        /** Deep-copy the snapshot (thread-safe: reads only). */
        explicit Fork(const MachineSnapshot &snapshot);

        Machine &machine() { return machine_; }
        JobMix &mix() { return mix_; }

        /**
         * Seed a fresh MachineEngine over machine() with the captured
         * resident set, rebinding every core's contexts to this
         * fork's jobmix.  Call once per engine before running.
         */
        void adopt(MachineEngine &engine);

      private:
        const MachineSnapshot *snapshot_;
        Machine machine_;
        JobMix mix_;
    };

  private:
    Machine machine_;
    JobMix mix_;
    /** The engine's residents, translated onto mix_ by job index. */
    std::vector<MachineEngine::Resident> resident_;
};

} // namespace sos

#endif // SOS_SIM_SNAPSHOT_HH
