/**
 * @file
 * Single-job reference IPC calibration.
 *
 * Weighted speedup divides each job's realized IPC by its "natural
 * offer rate" -- the IPC it achieves running alone on the machine.
 * The paper extends the definition to multithreaded jobs by using the
 * issue rate of the job running alone with no other jobs coscheduled
 * (Section 7), so a parallel job's reference depends on its thread
 * count. The Calibrator measures these references on a private core
 * with the experiment's core configuration, narrowed to the job's
 * thread count (contexts a solo run leaves empty do not change it),
 * and memoizes them per (workload, thread count).
 *
 * Measurements are also shared through a thread-safe SoloIpcTable
 * keyed by the (core, memory, intervals, sampling, workload, threads)
 * configuration, less the core's context count: a solo run is a pure
 * function of that key (private job, fixed internal seed, private
 * machine of `threads` contexts), so Calibrator instances built by
 * different experiments, at different SMT levels or on different
 * sweep worker threads, reuse each other's references instead of
 * re-simulating them. Every Calibrator uses the process-wide table
 * unless it is handed its own.
 *
 * Batches. Every reference goes through one path, Calibrator::measure:
 * it takes (calibrator, workload, threads) requests and the pool to run
 * on, drops duplicates and keys already in a table, measures the rest
 * as index-addressed tasks of one batch on that pool and installs them
 * in request order. soloIpc() is its one-key case. Concurrency
 * contract:
 *  - a Calibrator instance belongs to one thread (its memo is not
 *    locked); different instances may batch concurrently, and the
 *    table tolerates racing writers of the same key by keeping the
 *    first value installed (the values are equal anyway);
 *  - measurement tasks read only their own request and write only
 *    their own result slot; the memo and the table are written on the
 *    calling thread after the batch drains;
 *  - a batch started from inside a task of the same pool is a nested
 *    batch: it fans out onto that pool's idle workers;
 *  - results are bit-identical for every worker count.
 */

#ifndef SOS_METRICS_CALIBRATOR_HH
#define SOS_METRICS_CALIBRATOR_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cpu/core_params.hh"
#include "cpu/sample_windows.hh"
#include "mem/cache_hierarchy.hh"

namespace sos {

class JobMix;
class ThreadPool;

/** One solo reference: a workload alone on @c threads contexts. */
struct SoloKey
{
    std::string workload;
    int threads = 1;
};

/** A single-thread key for each of @p workloads, in order. */
std::vector<SoloKey> soloKeys(const std::vector<std::string> &workloads);

/** Measured solo IPCs keyed by their full configuration; thread-safe. */
class SoloIpcTable
{
  public:
    /** The process-wide table Calibrators share by default. */
    static SoloIpcTable &shared();

    /** The reference stored under @p key, if any. */
    std::optional<double> find(const std::string &key) const;

    /**
     * Store a measured reference. The first value installed for a key
     * is kept and returned: a racing batch that measured the same key
     * computed the same value.
     */
    double install(const std::string &key, double ipc);

    /** Measurements installed so far, duplicates of a key included. */
    std::uint64_t measured() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, double> values_;
    std::uint64_t measured_ = 0;
};

/** Measures and caches solo IPC references. */
class Calibrator
{
  public:
    /**
     * @param core Core configuration the experiment uses.
     * @param mem Memory configuration the experiment uses.
     * @param warmup_cycles Cycles run before measuring (cache warmup).
     * @param measure_cycles Measurement interval length.
     * @param table Where measured references are shared.
     */
    Calibrator(const CoreParams &core, const MemParams &mem,
               std::uint64_t warmup_cycles = 300000,
               std::uint64_t measure_cycles = 500000,
               SoloIpcTable &table = SoloIpcTable::shared());

    /**
     * Measure references at sampled fidelity (default: full detail).
     * A sweep that runs its co-schedules sampled scores them against
     * references measured the same way, so fidelity error largely
     * cancels in the weighted-speedup ratio. Sampled and full-detail
     * references are cached under distinct keys and never mix.
     */
    void setSampling(const SampleWindows &sample) { sample_ = sample; }

    /** One key of a batch, on the calibrator that measures it. */
    struct Request
    {
        Calibrator *calibrator = nullptr;
        SoloKey key;
    };

    /**
     * The measurement path. Returns the reference IPC of every
     * request, in request order, measuring the uncached ones as one
     * batch on @p pool (see the file comment for the concurrency
     * contract). A request with more threads than its core has
     * contexts fails an assertion before anything is measured.
     */
    static std::vector<double> measure(const std::vector<Request> &requests,
                                       ThreadPool &pool);

    /** measure() over @p keys of this calibrator. */
    std::vector<double> soloIpcs(const std::vector<SoloKey> &keys,
                                 ThreadPool &pool);

    /**
     * Reference IPC of a workload running alone with the given number
     * of threads (1 for sequential jobs): the one-key batch, measured
     * on the calling thread.
     */
    double soloIpc(const std::string &workload, int threads = 1);

    /**
     * Set every job's soloIpc from its workload and current thread
     * count, as one batch on the calling thread.
     */
    void calibrate(JobMix &mix);

  private:
    /** This calibrator's SoloIpcTable key for @p key. */
    std::string tableKey(const SoloKey &key) const;

    /** Run one solo measurement (pure; safe on any thread). */
    double measureOne(const SoloKey &key) const;

    CoreParams coreParams_;
    MemParams memParams_;
    std::uint64_t warmupCycles_;
    std::uint64_t measureCycles_;
    SampleWindows sample_;
    SoloIpcTable *table_;
    std::map<std::pair<std::string, int>, double> cache_;
};

} // namespace sos

#endif // SOS_METRICS_CALIBRATOR_HH
