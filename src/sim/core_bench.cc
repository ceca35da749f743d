#include "core_bench.hh"

#include <chrono>
#include <memory>
#include <string>
#include <vector>

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
        CoreParams params;
        params.numContexts = level;
        Machine machine(params, MemParams{});
        SmtCore &core = machine.core(0);
        const auto jobs = attachBenchJobs(core, level);

        PerfCounters pc;
        const auto start = clock::now();
        core.run(cycles_per_level, pc);
        const double elapsed =
            std::chrono::duration<double>(clock::now() - start).count();

        CoreBenchLevel &entry =
            result.levels[static_cast<std::size_t>(li)];
        entry.contexts = level;
        entry.cycles = pc.cycles;
        entry.retired = pc.retired;
        entry.ipc = pc.ipc();
        entry.elapsedSeconds = elapsed;
        entry.cyclesPerSec =
            elapsed > 0.0 ? static_cast<double>(pc.cycles) / elapsed
                          : 0.0;
        entry.retiredPerSec =
            elapsed > 0.0 ? static_cast<double>(pc.retired) / elapsed
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
        g.value("elapsed_seconds", "host wall-clock for the level") =
            level.elapsedSeconds;
        g.value("cycles_per_sec", "simulated cycles per host second") =
            level.cyclesPerSec;
        g.value("retired_per_sec",
                "retired instructions per host second") =
            level.retiredPerSec;
    }
}

} // namespace sos
