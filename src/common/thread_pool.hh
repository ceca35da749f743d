/**
 * @file
 * A small fixed-size, re-entrant thread pool for deterministic
 * fan-out.
 *
 * A run() submits one batch of index-addressed tasks. The submitting
 * thread claims indices of its own batch from the batch's atomic
 * counter until none are left; idle workers join open batches and
 * claim indices too. run() may be called from any thread -- several
 * at once, and from inside a task of the same pool -- so a task can
 * fan its own work out on the workers that would otherwise sit idle.
 * Because every task must be a pure function of its index (no shared
 * mutable state), results are bit-identical regardless of worker
 * count, claim order or which batches overlap -- the property the
 * parallel sweep layer's determinism contract rests on.
 */

#ifndef SOS_COMMON_THREAD_POOL_HH
#define SOS_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sos {

/**
 * Resolve a worker-count request to a concrete positive count.
 *
 * @param requested Explicit count (>= 0); 0 means "auto": the SOS_JOBS
 *        environment variable when set, else the hardware concurrency.
 *        An SOS_JOBS that is not a positive int is fatal.
 */
int resolveJobs(int requested = 0);

/** Fixed set of workers executing index-addressed task batches. */
class ThreadPool
{
  public:
    /**
     * @param workers Threads that run tasks, the submitting thread
     *        included: workers - 1 are spawned. <= 1 makes every run()
     *        fully inline.
     */
    explicit ThreadPool(int workers);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** No run() may be in progress. */
    ~ThreadPool();

    int workers() const { return workers_; }

    /**
     * Execute task(0) .. task(count - 1) and block until all are done.
     * The caller runs unclaimed indices of this batch itself; idle
     * workers join it. Callable from any thread, including from inside
     * a task of this pool (the nested batch fans out onto idle
     * workers). Tasks must not touch shared mutable state. If any
     * task throws, the first exception recorded is rethrown here --
     * and only here -- after the batch drains.
     */
    void run(std::size_t count,
             const std::function<void(std::size_t)> &task);

  private:
    struct Batch;

    void workerLoop();

    /**
     * Claim one index of the newest open batch that still has
     * unclaimed indices, retiring exhausted batches on the way; the
     * claimed batch gains a helper. Null when no batch has work.
     * Requires mutex_.
     */
    Batch *claimLocked(std::size_t &index);

    /** Run one claimed index, recording a thrown exception. */
    void runIndex(Batch &batch, std::size_t index);

    /** Drop @p batch from open_ if it is still listed. Requires mutex_. */
    void retireLocked(const Batch &batch);

    int workers_;
    std::vector<std::thread> threads_;

    std::mutex mutex_;
    /** Signals a newly opened batch, a helper leaving, or shutdown. */
    std::condition_variable changed_;
    bool shutdown_ = false;
    /** Batches that may have unclaimed indices, oldest first. */
    std::vector<Batch *> open_;
};

} // namespace sos

#endif // SOS_COMMON_THREAD_POOL_HH
