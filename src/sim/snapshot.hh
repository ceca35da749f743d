/**
 * @file
 * Warm-state snapshots for schedule sweeps.
 *
 * Every candidate of a sample-phase sweep used to re-simulate the
 * same cache/predictor warmup before its measured interval.  A
 * MachineSnapshot captures the complete post-warmup state once --
 * machine (cores, caches, predictor, cycle counts), jobmix
 * (generators mid-stream, sync domains, progress accounting) and the
 * engine's resident table -- and every candidate then runs on a
 * private Fork of it.
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
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cpu/machine.hh"
#include "cpu/sample_windows.hh"
#include "sched/jobmix.hh"
#include "sim/machine_engine.hh"
#include "sim/timeslice_engine.hh"

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
    /** One resident hardware context at capture time. */
    struct ResidentUnit
    {
        int core = 0;
        int slot = 0;
        int jobIndex = 0; ///< position in the mix (id() - 1)
        int thread = 0;
    };

    void capture(const JobMix &mix, const TimesliceEngine &engine,
                 int core);

    Machine machine_;
    JobMix mix_;
    std::vector<ResidentUnit> resident_;
};

/**
 * Warmed snapshots one experiment keeps across its sweeps.
 *
 * An experiment's sample and symbios phases warm the same mix on the
 * same machine with the same warm-up, so the later phase can fork the
 * earlier phase's snapshot instead of warming it again. Entries are
 * keyed by the whole warm-up recipe -- the mix, the machine, the
 * engine quantum, the warm-up schedule's label and the sampling
 * windows -- never by the warm-up label alone, which sweeps that
 * build per-index mixes would alias. The mix enters the key as its
 * seed plus every job's workload, thread count, adaptivity and solo
 * IPC, so it must be freshly built (nothing run on it yet).
 *
 * Not thread-safe: ParallelScheduleRunner::runAll reads and fills it
 * on its calling thread only.
 */
class WarmSnapshots
{
  public:
    /** Everything a warmed snapshot is a function of. */
    struct Recipe
    {
        std::uint64_t mixSeed = 0;
        /** Per job: workload, threads, adaptive, solo IPC. */
        std::vector<std::tuple<std::string, int, bool, double>> jobs;
        MachineParams machine;
        std::uint64_t timesliceCycles = 0;
        std::string warmup; ///< label of the warm-up schedule
        SampleWindows sample;

        bool operator==(const Recipe &) const = default;
    };

    /** The recipe of warming a fresh @p mix on the given setup. */
    static Recipe recipe(const JobMix &mix, const MachineParams &machine,
                         std::uint64_t timeslice_cycles,
                         const std::string &warmup_label,
                         const SampleWindows &sample);

    /** The snapshot warmed for @p recipe, or null. */
    std::shared_ptr<const MachineSnapshot>
    find(const Recipe &recipe) const;

    /** Keep @p snapshot as the warm state of @p recipe. */
    void add(Recipe recipe,
             std::shared_ptr<const MachineSnapshot> snapshot);

    std::size_t size() const { return entries_.size(); }

    /** Drop every snapshot (an experiment done with its sweeps). */
    void clear() { entries_.clear(); }

  private:
    std::vector<
        std::pair<Recipe, std::shared_ptr<const MachineSnapshot>>>
        entries_;
};

} // namespace sos

#endif // SOS_SIM_SNAPSHOT_HH
