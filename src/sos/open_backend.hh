/**
 * @file
 * The engine backend of the open-system SOS kernel.
 *
 * The kernel schedules a changing pool of jobs; the EngineBackend is
 * the substrate it schedules onto. The backend owns the live engine
 * (which owns the machine), runs one timeslice of a chosen
 * coschedule, draws candidate coschedules over the pool, and -- the
 * heart of the kernel's sample phase -- profiles every candidate in
 * parallel, each on a fork of the live engine over copies of the pool
 * jobs, and lets the kernel adopt the winner's fork as the live state.
 *
 * The core count picks the candidate draw: one SMT core (the paper's
 * machine; Figures 5-6) draws distinct schedules of Js(n, level,
 * level) over the whole pool, while a CMP of SMT cores (Figure 8)
 * assigns one coschedule group per core.
 *
 * Determinism: fork profiling is a pure function of (live state,
 * candidate), fanned out as one ThreadPool batch, so results are
 * bit-identical for any SOS_JOBS worker count.
 */

#ifndef SOS_SOS_OPEN_BACKEND_HH
#define SOS_SOS_OPEN_BACKEND_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/schedule_profile.hh"
#include "cpu/machine.hh"
#include "sched/schedule.hh"
#include "sim/machine_engine.hh"

namespace sos {

/** One candidate coschedule of the active pool across the cores. */
struct OpenCandidate
{
    /** Pool indices assigned to each core; one entry per core. */
    std::vector<std::vector<int>> groups;

    /**
     * Per-core schedule over *positions within the core's group*
     * (0..group.size()-1); tupleAt() wraps, so any window works.
     */
    std::vector<Schedule> schedules;

    /** Display label, e.g. "{0,2}01|{1,3}01". */
    std::string label;

    /** Canonical identity (the kernel's changed-schedule check). */
    std::string key;

    /** Pool indices each core runs at period position @p t. */
    std::vector<std::vector<int>> tuplesAt(std::uint64_t t) const;
};

/** The substrate an open-system kernel run schedules onto. */
class EngineBackend
{
  public:
    /**
     * @p params describes the (possibly heterogeneous) machine; the
     * SMT level is uniform across cores (SimConfig::machineFor()
     * forces it). The live slices and the candidate-profiling forks
     * run at the fidelity @p sample sets (cpu/sampling.hh), so the
     * kernel's WS comparisons stay internally consistent.
     */
    EngineBackend(const MachineParams &params,
                  std::uint64_t timeslice_cycles,
                  const SampleWindows &sample);

    /** The substrate, as the "open.backend" manifest field names it. */
    std::string name() const
    {
        return numCores_ == 1 ? "smt-core" : "machine";
    }

    /** Units the whole machine can run per timeslice. */
    int capacity() const { return numCores_ * level_; }

    std::uint64_t timesliceCycles() const { return live_.timesliceCycles(); }

    /** The live machine (its memory counters for manifests). */
    const Machine &machine() const { return live_.machine(); }

    /**
     * Draw up to @p count distinct candidate coschedules of a pool of
     * @p num_jobs jobs. Consumes @p rng deterministically.
     *
     * One core: distinct schedules of Js(num_jobs, level, level) over
     * the pool positions. More cores: random permutations of the pool
     * split into near-equal contiguous per-core groups, deduplicated
     * by canonical key. On a heterogeneous machine the key tags each
     * per-core part with the core's equivalence class, so placements
     * that differ only by permuting identical cores still collapse
     * while moves across classes count as distinct candidates.
     */
    std::vector<OpenCandidate>
    drawCandidates(int num_jobs, int count, Rng &rng) const;

    /**
     * Profiling window per candidate, in timeslices: a couple of
     * sweeps over the pool, so the sample phase can finish between
     * arrivals even for awkward pool sizes. One core also caps it at
     * the schedule period.
     */
    std::uint64_t windowSlices(int num_jobs) const;

    /** The only sensible coschedule when the pool fits the machine. */
    OpenCandidate trivialCandidate(int num_jobs) const;

    /**
     * Distribute the chosen pool indices (at most capacity() of them)
     * into per-core tuples, filling cores in index order (the naive
     * scheduler's placement).
     */
    std::vector<std::vector<int>>
    spread(const std::vector<int> &chosen) const;

    /**
     * Run one live timeslice: core k runs core_tuples[k] (pool
     * indices into @p pool). Cores with empty tuples still advance,
     * evicting leftover residents. Returns machine-wide counters with
     * cycles normalized to one quantum.
     */
    PerfCounters runLiveSlice(const std::vector<Job *> &pool,
                              const std::vector<std::vector<int>>
                                  &core_tuples);

    /**
     * Profile every candidate for @p window timeslices starting at
     * period position @p offset, each on a private fork (a copy of
     * the pool's jobs and a fork of the live engine onto them), as
     * one batch on @p workers (nested when called from a task of that
     * pool). The forks are retained so the winner can be adopted.
     * Profiles are index-ordered and bit-identical for any worker
     * count.
     */
    std::vector<ScheduleProfile>
    profileCandidates(const std::vector<Job *> &pool,
                      const std::vector<OpenCandidate> &candidates,
                      std::uint64_t window, std::uint64_t offset,
                      ThreadPool &workers);

    /**
     * Make fork @p index's engine the live engine and hand its job
     * copies (pool-ordered) to the caller; drops the other forks.
     */
    std::vector<std::unique_ptr<Job>> adoptFork(std::size_t index);

    /** Detach a departing job from every core. */
    void evictJob(const Job *job) { live_.evictJob(job); }

  private:
    /** One candidate's private state: the pool's jobs, copied, and
     *  the live engine forked onto them. */
    struct Fork
    {
        std::vector<std::unique_ptr<Job>> jobs;
        MachineEngine engine;
    };

    int numCores_;
    int level_;
    std::vector<int> classes_; ///< core equivalence classes
    MachineEngine live_; ///< runs the kernel's pool jobs
    /** One per candidate, retained by profileCandidates(). */
    std::vector<std::optional<Fork>> forks_;
};

} // namespace sos

#endif // SOS_SOS_OPEN_BACKEND_HH
