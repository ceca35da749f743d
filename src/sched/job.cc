#include "job.hh"

#include "common/logging.hh"
#include "common/rng.hh"

namespace sos {

Job::Job(std::uint32_t id, const WorkloadProfile &profile,
         std::uint64_t seed, int num_threads, bool adaptive)
    : id_(id), profile_(&profile), seed_(seed), adaptive_(adaptive)
{
    SOS_ASSERT(num_threads >= 1);
    spawnThreads(num_threads);
}

Job::Job(const Job &other)
    : arrivalCycle(other.arrivalCycle),
      completionCycle(other.completionCycle),
      sizeInstructions(other.sizeInstructions),
      finished(other.finished), soloIpc(other.soloIpc), id_(other.id_),
      profile_(other.profile_), seed_(other.seed_),
      adaptive_(other.adaptive_), retired_(other.retired_),
      residentCycles_(other.residentCycles_)
{
    threads_.reserve(other.threads_.size());
    for (const auto &thread : other.threads_)
        threads_.push_back(std::make_unique<TraceGenerator>(*thread));
    if (other.sync_)
        sync_ = std::make_unique<SyncDomain>(*other.sync_);
}

void
Job::spawnThreads(int num_threads)
{
    threads_.clear();
    for (int t = 0; t < num_threads; ++t) {
        // Siblings share the program (code seed) but not the data
        // stream: they execute the same binary over different work.
        threads_.push_back(std::make_unique<TraceGenerator>(
            *profile_, seed_,
            seed_ ^ mix64(static_cast<std::uint64_t>(t) + 1)));
    }
    // Any synchronizing workload needs a domain, even single-threaded
    // (a lone thread's barriers complete immediately).
    if (profile_->syncInterval > 0)
        sync_ = std::make_unique<SyncDomain>(num_threads);
    else
        sync_.reset();
}

TraceGenerator &
Job::generator(int thread)
{
    SOS_ASSERT(thread >= 0 && thread < numThreads(), "bad thread index");
    return *threads_[static_cast<std::size_t>(thread)];
}

ThreadBinding
Job::binding(int thread)
{
    ThreadBinding bind;
    bind.gen = &generator(thread);
    bind.sync = syncDomain();
    bind.syncIndex = thread;
    bind.asid = asid();
    return bind;
}

void
Job::setThreadCount(int num_threads)
{
    SOS_ASSERT(adaptive_, "only adaptive jobs can be re-spawned");
    SOS_ASSERT(num_threads >= 1);
    if (num_threads == numThreads())
        return;
    spawnThreads(num_threads);
}

void
Job::addRetired(std::uint64_t instructions)
{
    retired_ += instructions;
}

void
Job::addResidentCycles(std::uint64_t cycles)
{
    residentCycles_ += cycles;
}

} // namespace sos
