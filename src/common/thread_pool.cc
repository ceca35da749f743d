#include "thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <limits>

#include "logging.hh"

namespace sos {

/** One run() call; lives on the submitter's stack. */
struct ThreadPool::Batch
{
    const std::function<void(std::size_t)> *task = nullptr;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0}; ///< next unclaimed index
    int helpers = 0;                  ///< workers inside a task (guarded)
    std::exception_ptr firstError;    ///< guarded by mutex_
};

int
resolveJobs(int requested)
{
    SOS_ASSERT(requested >= 0, "worker count must be >= 0, got ",
               requested);
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("SOS_JOBS")) {
        char *end = nullptr;
        errno = 0;
        const long parsed = std::strtol(env, &end, 10);
        if (end == env || *end != '\0')
            fatal("SOS_JOBS is not an integer: '", env, "'");
        // Never narrow silently: 4294967297 is not 1.
        if (errno == ERANGE || parsed < std::numeric_limits<int>::min() ||
            parsed > std::numeric_limits<int>::max())
            fatal("SOS_JOBS is out of range for an int: '", env, "'");
        if (parsed <= 0)
            fatal("SOS_JOBS must be a positive integer, got '", env,
                  "'");
        return static_cast<int>(parsed);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int workers) : workers_(workers)
{
    SOS_ASSERT(workers >= 0);
    // Every submitter runs its own batch, so N workers means N - 1
    // spawned threads plus the submitting thread.
    for (int w = 1; w < workers_; ++w)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        SOS_ASSERT(open_.empty(), "pool destroyed during a batch");
        shutdown_ = true;
    }
    changed_.notify_all();
    for (std::thread &thread : threads_)
        thread.join();
}

void
ThreadPool::retireLocked(const Batch &batch)
{
    const auto it = std::find(open_.begin(), open_.end(), &batch);
    if (it != open_.end())
        open_.erase(it);
}

ThreadPool::Batch *
ThreadPool::claimLocked(std::size_t &index)
{
    // Newest first: a worker finishes the work already in flight
    // (typically a nested batch) before it starts an older batch's
    // next index.
    while (!open_.empty()) {
        Batch *batch = open_.back();
        index = batch->next.fetch_add(1, std::memory_order_relaxed);
        if (index + 1 >= batch->count)
            open_.pop_back(); // nothing left to claim
        if (index < batch->count) {
            ++batch->helpers;
            return batch;
        }
    }
    return nullptr;
}

void
ThreadPool::runIndex(Batch &batch, std::size_t index)
{
    try {
        (*batch.task)(index);
    } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!batch.firstError)
            batch.firstError = std::current_exception();
    }
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        std::size_t index = 0;
        Batch *batch = claimLocked(index);
        if (batch == nullptr) {
            // claimLocked() left open_ empty.
            if (shutdown_)
                return;
            changed_.wait(lock, [&] { return shutdown_ || !open_.empty(); });
            continue;
        }
        lock.unlock();
        runIndex(*batch, index);
        lock.lock();
        // The submitter may return (and free the batch) as soon as the
        // last helper leaves, so the batch is not touched after this.
        if (--batch->helpers == 0)
            changed_.notify_all();
    }
}

void
ThreadPool::run(std::size_t count,
                const std::function<void(std::size_t)> &task)
{
    if (count == 0)
        return;
    Batch batch;
    batch.task = &task;
    batch.count = count;
    const bool shared = !threads_.empty() && count > 1;
    if (shared) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            open_.push_back(&batch);
        }
        changed_.notify_all();
    }
    for (;;) {
        const std::size_t index =
            batch.next.fetch_add(1, std::memory_order_relaxed);
        if (index >= count)
            break;
        runIndex(batch, index);
    }
    if (shared) {
        // Every index is claimed; wait until the helpers that claimed
        // some have left (their results and errors are then visible
        // under the mutex).
        std::unique_lock<std::mutex> lock(mutex_);
        retireLocked(batch);
        changed_.wait(lock, [&] { return batch.helpers == 0; });
    }
    if (batch.firstError)
        std::rethrow_exception(batch.firstError);
}

} // namespace sos
