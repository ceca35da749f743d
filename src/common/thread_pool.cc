#include "thread_pool.hh"

#include <cstdlib>

#include "logging.hh"

namespace sos {

namespace {

/** Set while this thread runs a pool task (see ThreadPool::inTask). */
thread_local bool runningTask = false;

} // namespace

int
resolveJobs(int requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("SOS_JOBS")) {
        char *end = nullptr;
        const long parsed = std::strtol(env, &end, 10);
        if (end == env || *end != '\0' || parsed <= 0)
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
    // The submitting thread participates in every batch, so N workers
    // means N - 1 spawned threads plus the submitter.
    for (int w = 1; w < workers_; ++w)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    wake_.notify_all();
    for (std::thread &thread : threads_)
        thread.join();
}

bool
ThreadPool::inTask()
{
    return runningTask;
}

void
ThreadPool::drain(const std::function<void(std::size_t)> &task)
{
    // Saved and restored: a nested inline batch must not clear the
    // flag of the task that runs it.
    const bool outer = runningTask;
    runningTask = true;
    for (;;) {
        const std::size_t index =
            next_.fetch_add(1, std::memory_order_relaxed);
        if (index >= count_)
            break;
        try {
            task(index);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        finished_.fetch_add(1, std::memory_order_acq_rel);
    }
    runningTask = outer;
}

void
ThreadPool::workerLoop()
{
    std::uint64_t seen = 0; // last batch this worker took part in
    for (;;) {
        const std::function<void(std::size_t)> *task = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] {
                return shutdown_ ||
                       (task_ != nullptr && batchId_ != seen);
            });
            if (shutdown_)
                return;
            seen = batchId_;
            task = task_;
            ++active_;
        }
        drain(*task);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --active_;
        }
        done_.notify_one();
    }
}

void
ThreadPool::run(std::size_t count,
                const std::function<void(std::size_t)> &task)
{
    if (count == 0)
        return;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    finished_.store(0, std::memory_order_relaxed);
    if (threads_.empty()) {
        // Serial mode: the same claim loop, no threads involved.
        drain(task);
    } else {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            SOS_ASSERT(task_ == nullptr, "pool batch already running");
            task_ = &task;
            ++batchId_;
        }
        wake_.notify_all();
        drain(task);
        // Wait for completion AND for every participant to leave
        // drain(), so the next batch cannot reset the counters under a
        // straggler that has claimed past the end but not returned.
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [&] {
            return active_ == 0 &&
                   finished_.load(std::memory_order_acquire) == count_;
        });
        task_ = nullptr;
    }
    if (firstError_) {
        std::exception_ptr error = firstError_;
        firstError_ = nullptr;
        std::rethrow_exception(error);
    }
}

} // namespace sos
