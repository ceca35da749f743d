/**
 * @file
 * Microbenchmarks of the simulator's own components (google-benchmark):
 * trace generation, cache access, branch prediction, core simulation
 * throughput, and predictor scoring. These bound how much simulated
 * time the experiment harnesses can afford.
 *
 * With --bench FILE the binary also runs the fixed core-loop
 * microbench (sim/core_bench.hh) and writes its per-level host
 * throughput as the "core" section of the "sos.bench" document; the
 * document's elapsed time covers the google-benchmark run too.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/predictor.hh"
#include "cpu/machine.hh"
#include "mem/cache.hh"
#include "sim/bench_harness.hh"
#include "sim/core_bench.hh"
#include "trace/trace_generator.hh"
#include "trace/workload_library.hh"

namespace {

using namespace sos;

void
BM_TraceGenerator(benchmark::State &state)
{
    TraceGenerator gen(WorkloadLibrary::instance().get("GCC"), 1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen.next());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations()));
}
BENCHMARK(BM_TraceGenerator);

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache(CacheParams{"bench", 64 * 1024, 64, 4});
    Rng rng(7);
    std::uint64_t addr = 0;
    for (auto _ : state) {
        addr = rng.below(1 << 20);
        benchmark::DoNotOptimize(cache.access(1, addr));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations()));
}
BENCHMARK(BM_CacheAccess);

void
BM_BranchPredictor(benchmark::State &state)
{
    BranchPredictor bp(16);
    std::uint64_t pc = 0x1000;
    for (auto _ : state) {
        pc = (pc + 4) & 0xffff;
        benchmark::DoNotOptimize(
            bp.predictAndUpdate(3, pc, (pc & 8) != 0));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations()));
}
BENCHMARK(BM_BranchPredictor);

/** Core throughput in simulated cycles/second at a given SMT level. */
void
BM_SmtCoreCycles(benchmark::State &state)
{
    const int level = static_cast<int>(state.range(0));
    CoreParams params;
    params.numContexts = level;
    Machine machine(params, MemParams{});
    SmtCore &core = machine.core(0);
    const auto jobs = attachBenchJobs(core, level);
    PerfCounters pc;
    for (auto _ : state) {
        core.run(10000, pc);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * 10000));
    state.counters["IPC"] = pc.ipc();
}
BENCHMARK(BM_SmtCoreCycles)->Arg(1)->Arg(2)->Arg(4)->Arg(6);

void
BM_PredictorScoring(benchmark::State &state)
{
    std::vector<ScheduleProfile> profiles(10);
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        profiles[i].counters.cycles = 100000;
        profiles[i].counters.retired = 150000 + 1000 * i;
        profiles[i].counters.confFpQueue = 5000 + 700 * i;
        profiles[i].counters.confFpUnits = 3000 + 500 * i;
        profiles[i].counters.l1dHits = 90000;
        profiles[i].counters.l1dMisses = 10000;
        profiles[i].counters.fpOps = 40000;
        profiles[i].counters.intOps = 60000;
        profiles[i].sliceIpc = {1.5, 1.7, 1.6, 1.4 + 0.01 * i};
    }
    const auto score = makeScorePredictor();
    for (auto _ : state) {
        benchmark::DoNotOptimize(score->best(profiles));
    }
}
BENCHMARK(BM_PredictorScoring);

/**
 * Deterministic throughput counters for the manifest: wall-clock
 * timings vary run to run, so the manifest records the simulated-work
 * side of each core configuration instead (fixed workloads, fixed
 * cycle budget), which is reproducible bit for bit.
 */
void
registerCoreThroughputStats(const stats::Group &group)
{
    for (const CoreBenchLevel &level : runCoreBench(10000).levels) {
        const stats::Group entry =
            group.group("smt" + std::to_string(level.contexts));
        entry.scalar("cycles", "simulated cycles") = level.cycles;
        entry.scalar("retired", "instructions retired") = level.retired;
        entry.value("ipc", "retired instructions per cycle") = level.ipc;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    // google-benchmark gets the --benchmark_* arguments and the
    // harness parser everything else, so a typo fails like it does in
    // every other bench.
    std::vector<char *> forwarded = {argv[0]};
    std::vector<char *> harness_args = {argv[0]};
    for (int i = 1; i < argc; ++i) {
        const bool for_benchmark =
            std::string(argv[i]).starts_with("--benchmark_");
        (for_benchmark ? forwarded : harness_args).push_back(argv[i]);
    }
    int forwarded_argc = static_cast<int>(forwarded.size());

    // Constructed first: the harness clock starts here, so the bench
    // report's elapsed time spans the google-benchmark run and the
    // core loop below.
    BenchHarness harness({"micro_simulator"},
                         static_cast<int>(harness_args.size()),
                         harness_args.data());
    benchmark::Initialize(&forwarded_argc, forwarded.data());
    if (benchmark::ReportUnrecognizedArguments(forwarded_argc,
                                               forwarded.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    registerCoreThroughputStats(harness.group("core_throughput"));
    if (harness.wantsBench())
        publishCoreBench(harness.bench("core"), runCoreBench());
    return harness.finish();
}
