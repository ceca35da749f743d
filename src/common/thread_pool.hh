/**
 * @file
 * A small fixed-size thread pool for deterministic fan-out.
 *
 * The pool is deliberately work-stealing-free: a run() hands the
 * workers one batch of index-addressed tasks which they claim from a
 * single atomic counter. Because every task must be a pure function
 * of its index (no shared mutable state), results are bit-identical
 * regardless of worker count or claim order -- the property the
 * parallel sweep layer's determinism contract rests on.
 */

#ifndef SOS_COMMON_THREAD_POOL_HH
#define SOS_COMMON_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sos {

/**
 * Resolve a worker-count request to a concrete positive count.
 *
 * @param requested Explicit count; 0 means "auto": the SOS_JOBS
 *        environment variable when set, else the hardware concurrency.
 */
int resolveJobs(int requested = 0);

/** Fixed set of workers executing index-addressed task batches. */
class ThreadPool
{
  public:
    /** @param workers Worker threads; <= 1 makes run() fully inline. */
    explicit ThreadPool(int workers);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    ~ThreadPool();

    int workers() const { return workers_; }

    /**
     * True while the calling thread is executing a task of some
     * pool's batch. Construction-time fan-outs (Calibrator batches)
     * check it and run inline there, so a batch only ever spreads
     * across workers from the thread that constructs the experiment.
     */
    static bool inTask();

    /**
     * Execute task(0) .. task(count - 1) and block until all are done.
     * Tasks must not touch shared mutable state. If any task throws,
     * the first exception (in claim order) is rethrown here after the
     * batch drains.
     */
    void run(std::size_t count,
             const std::function<void(std::size_t)> &task);

  private:
    void workerLoop();
    void drain(const std::function<void(std::size_t)> &task);

    int workers_;
    std::vector<std::thread> threads_;

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    bool shutdown_ = false;
    std::uint64_t batchId_ = 0;

    // State of the in-flight batch.
    const std::function<void(std::size_t)> *task_ = nullptr;
    std::size_t count_ = 0;
    int active_ = 0; ///< workers currently inside drain() (guarded)
    std::atomic<std::size_t> next_{0};
    std::atomic<std::size_t> finished_{0};
    std::exception_ptr firstError_;
};

} // namespace sos

#endif // SOS_COMMON_THREAD_POOL_HH
