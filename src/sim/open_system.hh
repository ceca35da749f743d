/**
 * @file
 * Open-system response-time experiment (Section 9, Figures 5-6, 8).
 *
 * Jobs enter with exponentially distributed interarrival times and
 * exponentially distributed lengths, drawn from the Table 1
 * applications. The same pregenerated arrival trace is fed to two
 * schedulers:
 *
 *  - Naive: coschedules jobs in tuples equal to the machine capacity
 *    in the order they arrived (the paper's random control group);
 *  - SOS: samples coschedules of the current mix, runs the predicted
 *    best in the symbios phase, and resamples on job arrival, job
 *    departure, or timer expiry with exponential backoff.
 *
 * Both swap the whole running set each timeslice, as in the paper.
 * Response time is completion minus arrival; SOS's sampling overhead
 * is inside the measurement, exactly as the paper reports it.
 *
 * This file is a thin adapter: trace generation and configuration
 * translation. The scheduling loop itself is OpenRun -- the
 * event-driven sample/symbios state machine, also driven by every
 * cluster node -- running on an EngineBackend substrate (one SMT core
 * for Figures 5-6, a CMP of SMT cores for Figure 8).
 */

#ifndef SOS_SIM_OPEN_SYSTEM_HH
#define SOS_SIM_OPEN_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cpu/machine.hh"
#include "sim/sim_config.hh"
#include "sos/open_run.hh"

namespace sos {

namespace stats {
class EventTrace;
} // namespace stats

/** One pregenerated job arrival. */
struct JobArrival
{
    std::string workload;
    std::uint64_t arrivalCycle = 0;     ///< simulated cycles
    std::uint64_t sizeInstructions = 0; ///< retire this many to finish
};

/** Parameters of one open-system run. */
struct OpenSystemConfig
{
    int level = 3;

    /**
     * SMT cores in the machine. 1 is the paper's substrate; more
     * build a CMP where every coschedule assigns a job group per core
     * (Figure 8).
     */
    int numCores = 1;

    /**
     * Mean job length in paper cycles of solo execution. The paper
     * uses 2 G; the default here is shorter so benchmark harnesses
     * finish in minutes -- response-time *ratios* are preserved
     * (documented in DESIGN.md).
     */
    std::uint64_t meanJobPaperCycles = 150000000;

    /**
     * Mean interarrival time in paper cycles; 0 derives a value that
     * keeps the system stable with roughly N = 2 x capacity jobs.
     */
    std::uint64_t meanInterarrivalPaper = 0;

    /** Arrivals to generate (the run ends when all complete). */
    int numJobs = 32;

    /** Maximum schedules profiled per sample phase. */
    int sampleSchedules = 10;

    /**
     * Predictor the symbios phase trusts. The paper does not name the
     * one used for its response-time experiments; IPC is the most
     * robust single predictor on this substrate (see Figure 3) and is
     * the default here. Any name makePredictor() accepts works.
     */
    std::string predictor = "IPC";

    /**
     * Resample-timer policy ("backoff" is the paper's exponential
     * backoff; any name makeResamplePolicy() accepts works).
     */
    std::string resamplePolicy = "backoff";

    std::uint64_t seed = 0x0b5e55edULL;

    /**
     * Effective interarrival mean: meanInterarrivalPaper when set,
     * else the derived default.
     *
     * The derived value is stableInterarrivalPaper() against the
     * capacity probe (measuredCapacity()) of @p sim's machine at this
     * level, run on @p pool. Nothing caches the probe: whoever builds
     * a config with meanInterarrivalPaper == 0 stores this value back
     * into it once, before handing the config to the functions below,
     * each of which would otherwise probe again.
     */
    std::uint64_t effectiveInterarrivalPaper(const SimConfig &sim,
                                             ThreadPool &pool) const;

    /**
     * The derived default against a measured per-core capacity
     * (measuredCapacity()), whatever meanInterarrivalPaper holds: a
     * load that keeps about 2 x capacity jobs in the system.
     */
    std::uint64_t stableInterarrivalPaper(double core_capacity) const;
};

/** One capacity probe: one SMT core at @c level of @c sim's machine. */
struct CapacityProbe
{
    const SimConfig *sim = nullptr;
    int level = 3;
};

/**
 * The co-run half of a capacity probe: the warm co-runs of level-sized
 * groups covering the open-system workload population, each group
 * with its members and the micro-ops each retired over the measured
 * interval. It reads no solo reference.
 */
struct CoRunGroups
{
    struct Member
    {
        std::size_t workload = 0; ///< index into openSystemWorkloads()
        std::uint64_t retired = 0;
    };
    std::vector<std::vector<Member>> groups;
    /** Length of every group's measured interval, in cycles. */
    std::uint64_t measuredCycles = 0;
};

/**
 * Run @p probe's co-run groups, one after another on one reference
 * core: each group runs on the machine state the previous one left.
 */
CoRunGroups simulateCoRunGroups(const CapacityProbe &probe);

/**
 * The scoring half: the mean weighted speedup of @p run's groups
 * against @p solo (one reference per open-system workload, in order),
 * floored at 0.1.
 */
double scoreCoRun(const CoRunGroups &run, std::span<const double> solo);

/**
 * The capacity probe: the weighted-speedup capacity of each probe's
 * core, in probe order, from simulateCoRunGroups() scored against
 * solo-IPC references (scoreCoRun()). One batch of @p pool runs both
 * halves side by side: one task per probe runs its co-run groups, and
 * one more task measures the union of every probe's references as a
 * nested batch, so a reference that probes share (solo runs do not
 * depend on the level) is measured once. Each probe is scored once
 * both halves have joined. Deterministic and uncached.
 */
std::vector<double> measuredCapacities(const std::vector<CapacityProbe> &probes,
                                       ThreadPool &pool);

/** measuredCapacities() of the one probe (@p sim, @p level). */
double measuredCapacity(const SimConfig &sim, int level, ThreadPool &pool);

/** Outcome of one open-system run under one policy. */
struct OpenSystemResult
{
    int completed = 0;
    double meanResponseCycles = 0.0;
    double meanJobsInSystem = 0.0; ///< Little's-law sanity signal
    std::uint64_t totalCycles = 0;
    std::uint64_t sampleCycles = 0; ///< cycles spent in sample phases
    int samplePhases = 0;
    /** Resamples forced by a job arriving or departing. */
    int resamplesOnJobChange = 0;
    /** Resamples triggered by the backoff timer expiring. */
    int resamplesOnTimer = 0;
    /** Response time per arrival index (matches the trace order). */
    std::vector<std::uint64_t> responseByArrival;
    /** The substrate, as EngineBackend::name() calls it. */
    std::string backend;
    /** The backend machine's memory counters once the run drained. */
    MemoryCounters memory;
};

/**
 * Generate the deterministic arrival trace both policies replay; the
 * solo references that size the jobs are measured on @p pool.
 */
std::vector<JobArrival> makeArrivalTrace(const SimConfig &sim,
                                         const OpenSystemConfig &config,
                                         ThreadPool &pool);

/**
 * Build the engine backend an open-system run schedules onto: a
 * @p num_cores machine (at least one core) of SMT-@p level cores,
 * sampled as @p sim.sample says. runOpenSystem() and every cluster
 * node build theirs here.
 */
std::unique_ptr<EngineBackend>
makeOpenBackend(const SimConfig &sim, int level, int num_cores);

/** Everything an OpenRun needs besides its backend and policy. */
struct OpenRunSetup
{
    OpenRun::Config config;
    OpenRun::JobFactory makeJob;
};

/**
 * The open-run setup runOpenSystem() and every cluster node share.
 * Kernel knobs come from @p system (sample schedules, predictor,
 * resample policy), @p sim (model path) and @p base_interval_cycles.
 * @p seed seeds the kernel's decision stream (seed ^ 0x5051d67e) and
 * every job: arrival i runs its workload with
 * seed ^ mix64(i + 101), carrying the arrival cycle and size
 * @p arrival_at returns for it and a solo IPC calibrated at
 * system.level.
 */
OpenRunSetup
openRunSetup(const SimConfig &sim, const OpenSystemConfig &system,
             std::uint64_t base_interval_cycles, std::uint64_t seed,
             std::function<JobArrival(std::size_t)> arrival_at);

/**
 * Run one policy over a trace on a fresh backend (makeOpenBackend());
 * a sample phase profiles its candidate forks as one batch on
 * @p pool. The result carries the backend's name and its machine's
 * memory counters at drain, so nothing needs the backend afterwards.
 *
 * When @p events is non-null, the kernel's SOS decisions -- each
 * "sample_phase_begin" (with its trigger: job_change or timer) and
 * each "symbios_pick" -- are appended to it. Decisions are emitted
 * from the kernel's deterministic event loop, so traces are
 * byte-identical across runs and worker counts; runs fanned out on
 * one pool each take their own.
 */
OpenSystemResult runOpenSystem(const SimConfig &sim,
                               const OpenSystemConfig &config,
                               const std::vector<JobArrival> &trace,
                               OpenPolicy policy, ThreadPool &pool,
                               stats::EventTrace *events = nullptr);

/** Side-by-side comparison used by Figures 5, 6 and 8. */
struct ResponseComparison
{
    OpenSystemResult naive;
    OpenSystemResult sos;
    int jobsCompared = 0;
    /** Mean response-time improvement of SOS over naive, percent. */
    double improvementPct = 0.0;
};

/**
 * Run both policies over the same trace and compare, all on @p pool;
 * a derived interarrival is resolved once for the trace and both
 * runs. The SOS run takes @p events as runOpenSystem() does.
 */
ResponseComparison
compareResponseTimes(const SimConfig &sim, const OpenSystemConfig &config,
                     ThreadPool &pool, stats::EventTrace *events = nullptr);

} // namespace sos

#endif // SOS_SIM_OPEN_SYSTEM_HH
