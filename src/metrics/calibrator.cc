#include "calibrator.hh"

#include <type_traits>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "cpu/machine.hh"
#include "cpu/sampling.hh"
#include "sched/job.hh"
#include "sched/jobmix.hh"
#include "trace/workload_library.hh"

namespace sos {

namespace {

void
appendField(std::string &key, const std::string &value)
{
    key += value;
    key += ';';
}

template <typename Int,
          typename = std::enable_if_t<std::is_integral_v<Int>>>
void
appendField(std::string &key, Int value)
{
    appendField(key, std::to_string(value));
}

void
appendCache(std::string &key, const CacheParams &cache)
{
    appendField(key, cache.name);
    appendField(key, cache.sizeBytes);
    appendField(key, cache.lineBytes);
    appendField(key, cache.assoc);
}

/**
 * Canonical rendering of everything a solo-IPC measurement depends
 * on. Collision-free by construction (unlike a hash), so a cache hit
 * is always the right reference. Must enumerate every CoreParams and
 * MemParams field but one: a missed field would alias configurations.
 * The exception is core.numContexts. A solo run leaves every context
 * beyond its own threads empty, and measureOne() runs it on the
 * smallest core that hosts it (numContexts = threads), so the cores
 * of every SMT level share one reference;
 * Calibrator.ReferenceIsIndependentOfContextCount pins that the
 * context count does not change a solo run.
 */
std::string
soloIpcKey(const CoreParams &core, const MemParams &mem,
           std::uint64_t warmup_cycles, std::uint64_t measure_cycles,
           const SampleWindows &sample, const std::string &workload,
           int threads)
{
    std::string key;
    key.reserve(256);
    appendField(key, workload);
    appendField(key, threads);
    appendField(key, warmup_cycles);
    appendField(key, measure_cycles);
    appendField(key, sample.fastForward);
    appendField(key, sample.warm);
    appendField(key, sample.measure);

    appendField(key, core.fetchWidth);
    appendField(key, core.fetchThreads);
    appendField(key, core.fetchQueueSize);
    appendField(key, core.frontendDelay);
    appendField(key, core.mispredictRedirect);
    appendField(key, core.dispatchWidth);
    appendField(key, core.commitWidth);
    appendField(key, core.intQueueSize);
    appendField(key, core.fpQueueSize);
    appendField(key, core.intRenameRegs);
    appendField(key, core.fpRenameRegs);
    appendField(key, core.robSize);
    appendField(key, core.numIntUnits);
    appendField(key, core.fpAddPipes);
    appendField(key, core.fpMulPipes);
    appendField(key, core.numLsPorts);
    appendField(key, core.intAluLat);
    appendField(key, core.intMultLat);
    appendField(key, core.fpAddLat);
    appendField(key, core.fpMultLat);
    appendField(key, core.fpDivLat);
    appendField(key, core.l1dHitLat);
    appendField(key, core.predictorBits);
    appendField(key, core.roundRobinFetch ? 1 : 0);

    appendCache(key, mem.l1i);
    appendCache(key, mem.l1d);
    appendCache(key, mem.l2);
    appendCache(key, mem.itlb);
    appendCache(key, mem.dtlb);
    appendField(key, mem.l2HitLatency);
    appendField(key, mem.memLatency);
    appendField(key, mem.tlbMissLatency);
    appendField(key, mem.prefetch.enabled ? 1 : 0);
    appendField(key, mem.prefetch.tableBits);
    appendField(key, mem.prefetch.confidenceThreshold);
    appendField(key, mem.prefetch.degree);
    return key;
}

} // namespace

std::vector<SoloKey>
soloKeys(const std::vector<std::string> &workloads)
{
    std::vector<SoloKey> keys;
    keys.reserve(workloads.size());
    for (const std::string &workload : workloads)
        keys.push_back({workload, 1});
    return keys;
}

SoloIpcTable &
SoloIpcTable::shared()
{
    // A solo IPC is a pure function of its key, so experiments sharing
    // a configuration -- every figure harness builds several
    // Calibrators with the same one -- share measurements across
    // instances and threads.
    static SoloIpcTable table;
    return table;
}

std::optional<double>
SoloIpcTable::find(const std::string &key) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto hit = values_.find(key);
    if (hit == values_.end())
        return std::nullopt;
    return hit->second;
}

double
SoloIpcTable::install(const std::string &key, double ipc)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    ++measured_;
    // emplace keeps an existing value: the first writer wins, and a
    // racing writer of the same key measured the same value.
    return values_.emplace(key, ipc).first->second;
}

std::uint64_t
SoloIpcTable::measured() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return measured_;
}

Calibrator::Calibrator(const CoreParams &core, const MemParams &mem,
                       std::uint64_t warmup_cycles,
                       std::uint64_t measure_cycles, SoloIpcTable &table)
    : coreParams_(core), memParams_(mem), warmupCycles_(warmup_cycles),
      measureCycles_(measure_cycles), table_(&table)
{
    SOS_ASSERT(measure_cycles > 0);
}

std::string
Calibrator::tableKey(const SoloKey &key) const
{
    return soloIpcKey(coreParams_, memParams_, warmupCycles_,
                      measureCycles_, sample_, key.workload, key.threads);
}

double
Calibrator::measureOne(const SoloKey &key) const
{
    // A private job on a private core: the reference must not perturb
    // or observe the experiment's machine state.
    const WorkloadProfile &profile =
        WorkloadLibrary::instance().get(key.workload);
    Job job(1, profile, 0xca11b7a7eULL, key.threads,
            /*adaptive=*/false);
    // The smallest core that hosts the job: the table key leaves the
    // context count out, so a shared key's value must not depend on
    // which calibrator measured it first.
    CoreParams core_params = coreParams_;
    core_params.numContexts = key.threads;
    Machine machine(core_params, memParams_);
    SmtCore &core = machine.core(0);
    for (int t = 0; t < key.threads; ++t)
        core.attachThread(t, job.binding(t));

    // References are measured at the experiment's fidelity (see
    // setSampling), but their tally is never recorded into the run's
    // sampling stats: a reference is cached machinery, not part of
    // any one run.
    SamplingController sampler(core, sample_);
    SamplingTally unrecorded;
    PerfCounters warmup;
    sampler.run(warmupCycles_, warmup, unrecorded);
    PerfCounters measured;
    sampler.run(measureCycles_, measured, unrecorded);

    const double ipc = measured.ipc();
    SOS_ASSERT(ipc > 0.0, "calibration produced zero IPC for ",
               key.workload);
    return ipc;
}

std::vector<double>
Calibrator::measure(const std::vector<Request> &requests, ThreadPool &pool)
{
    // A key to measure, and the requests waiting for it.
    struct Pending
    {
        Calibrator *calibrator;
        SoloKey key;
        std::string tableKey;
        std::vector<std::size_t> waiting;
    };

    std::vector<double> ipcs(requests.size(), 0.0);
    std::vector<Pending> pending;
    std::map<std::pair<const SoloIpcTable *, std::string>, std::size_t>
        pending_index;
    for (std::size_t r = 0; r < requests.size(); ++r) {
        Calibrator &calibrator = *requests[r].calibrator;
        const SoloKey &key = requests[r].key;
        SOS_ASSERT(key.threads >= 1 &&
                       key.threads <= calibrator.coreParams_.numContexts,
                   "solo run cannot use more threads than contexts");
        const auto memo =
            calibrator.cache_.find({key.workload, key.threads});
        if (memo != calibrator.cache_.end()) {
            ipcs[r] = memo->second;
            continue;
        }
        std::string table_key = calibrator.tableKey(key);
        if (const auto shared = calibrator.table_->find(table_key)) {
            calibrator.cache_.emplace(
                std::make_pair(key.workload, key.threads), *shared);
            ipcs[r] = *shared;
            continue;
        }
        const auto [it, inserted] = pending_index.emplace(
            std::make_pair(calibrator.table_, table_key), pending.size());
        if (inserted)
            pending.push_back(
                {&calibrator, key, std::move(table_key), {}});
        pending[it->second].waiting.push_back(r);
    }
    if (pending.empty())
        return ipcs;

    // Each task reads its own request and writes its own slot.
    std::vector<double> measured(pending.size(), 0.0);
    pool.run(pending.size(), [&](std::size_t p) {
        measured[p] = pending[p].calibrator->measureOne(pending[p].key);
    });

    for (std::size_t p = 0; p < pending.size(); ++p) {
        Pending &entry = pending[p];
        const double ipc =
            entry.calibrator->table_->install(entry.tableKey, measured[p]);
        for (std::size_t r : entry.waiting) {
            requests[r].calibrator->cache_.emplace(
                std::make_pair(entry.key.workload, entry.key.threads),
                ipc);
            ipcs[r] = ipc;
        }
    }
    return ipcs;
}

std::vector<double>
Calibrator::soloIpcs(const std::vector<SoloKey> &keys, ThreadPool &pool)
{
    std::vector<Request> requests;
    requests.reserve(keys.size());
    for (const SoloKey &key : keys)
        requests.push_back({this, key});
    return measure(requests, pool);
}

double
Calibrator::soloIpc(const std::string &workload, int threads)
{
    ThreadPool inline_pool(1);
    return soloIpcs({{workload, threads}}, inline_pool).front();
}

void
Calibrator::calibrate(JobMix &mix)
{
    std::vector<SoloKey> keys;
    for (int j = 0; j < mix.numJobs(); ++j)
        keys.push_back({mix.job(j).name(), mix.job(j).numThreads()});
    ThreadPool inline_pool(1);
    const std::vector<double> ipcs = soloIpcs(keys, inline_pool);
    for (int j = 0; j < mix.numJobs(); ++j)
        mix.job(j).soloIpc = ipcs[static_cast<std::size_t>(j)];
}

} // namespace sos
