#include "core_bench.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "cpu/machine.hh"
#include "sched/job.hh"
#include "trace/workload_library.hh"

namespace sos {

namespace {

/** The SMT levels the microbench sweeps, smallest first. */
constexpr std::array<int, CoreBenchResult::numLevels> benchLevels = {
    1, 2, 4, 6};

/** Fixed workload rotation; seeds are fixed too (see attachBenchJobs). */
constexpr std::array<const char *, 6> benchWorkloads = {
    "EP", "FP", "MG", "GCC", "GO", "WAVE"};

} // namespace

std::vector<std::unique_ptr<Job>>
attachBenchJobs(SmtCore &core, int level)
{
    std::vector<std::unique_ptr<Job>> jobs;
    for (int t = 0; t < level; ++t) {
        jobs.push_back(std::make_unique<Job>(
            static_cast<std::uint32_t>(t + 1),
            WorkloadLibrary::instance().get(
                benchWorkloads[static_cast<std::size_t>(t) %
                               benchWorkloads.size()]),
            0xb0b0 + static_cast<std::uint64_t>(t), 1, false));
        core.attachThread(t, jobs.back()->binding(0));
    }
    return jobs;
}

CoreBenchResult
runCoreBench(std::uint64_t cycles_per_level)
{
    using clock = std::chrono::steady_clock;
    CoreBenchResult result;

    for (int li = 0; li < CoreBenchResult::numLevels; ++li) {
        const int level = benchLevels[static_cast<std::size_t>(li)];
        // Each repetition starts from a fresh machine, so every one
        // simulates exactly the same thing; only the host time varies.
        PerfCounters first;
        std::array<double, CoreBenchResult::repetitions> elapsed{};
        for (std::size_t rep = 0; rep < elapsed.size(); ++rep) {
            CoreParams params;
            params.numContexts = level;
            Machine machine(params, MemParams{});
            SmtCore &core = machine.core(0);
            const auto jobs = attachBenchJobs(core, level);

            PerfCounters pc;
            const auto start = clock::now();
            core.run(cycles_per_level, pc);
            elapsed[rep] =
                std::chrono::duration<double>(clock::now() - start).count();
            if (rep == 0)
                first = pc;
            SOS_ASSERT(pc == first,
                       "core bench repetitions simulated different work");
        }
        std::sort(elapsed.begin(), elapsed.end());
        const double median = elapsed[elapsed.size() / 2];

        CoreBenchLevel &entry =
            result.levels[static_cast<std::size_t>(li)];
        entry.contexts = level;
        entry.cycles = first.cycles;
        entry.retired = first.retired;
        entry.ipc = first.ipc();
        entry.elapsedSeconds = median;
        entry.cyclesPerSec =
            median > 0.0 ? static_cast<double>(first.cycles) / median
                         : 0.0;
        entry.retiredPerSec =
            median > 0.0 ? static_cast<double>(first.retired) / median
                         : 0.0;
    }
    return result;
}

void
publishCoreBench(const stats::Group &group, const CoreBenchResult &result)
{
    for (const CoreBenchLevel &level : result.levels) {
        const stats::Group g =
            group.group("smt" + std::to_string(level.contexts));
        g.scalar("cycles", "simulated cycles driven") = level.cycles;
        g.scalar("retired", "instructions retired") = level.retired;
        g.value("ipc", "simulated IPC") = level.ipc;
        g.value("elapsed_seconds", "median host wall-clock of one run") =
            level.elapsedSeconds;
        g.value("cycles_per_sec", "simulated cycles per host second") =
            level.cyclesPerSec;
        g.value("retired_per_sec",
                "retired instructions per host second") =
            level.retiredPerSec;
    }
}

} // namespace sos
