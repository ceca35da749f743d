/**
 * @file
 * Reproduces Figure 5: response-time improvement of SOS over a naive
 * (arrival-order) jobscheduler on an open system with random job
 * arrivals and lengths, at SMT levels 2, 3, 4 and 6.
 *
 * The paper draws its conclusions "after many such experiments"; this
 * harness averages several independent arrival traces per level
 * (response-time means on a single trace are dominated by the luck of
 * the heaviest queueing episode).
 */

#include <cstdio>
#include <vector>

#include "common/stats_util.hh"
#include "sim/bench_harness.hh"
#include "sim/open_system.hh"
#include "sim/parallel_runner.hh"
#include "sim/reporting.hh"

int
main(int argc, char **argv)
{
    using namespace sos;

    // Open-system runs are long; default to a coarser scale than the
    // throughput benches (SOS_CYCLE_SCALE and --set still override it).
    BenchHarness harness(
        {.tool = "fig5_response_time", .cycleScale = 200}, argc, argv);
    SimConfig &config = harness.config();
    const int traces = 3;
    const std::vector<int> levels = {2, 3, 4, 6};

    printBanner("Figure 5: response-time improvement vs SMT level");
    TablePrinter table({"SMT level", "improve% (avg)", "per trace",
                        "mean N", "sample phases"},
                       {9, 14, 24, 7, 13});
    table.printHeader();

    // Every (level, trace) run is independent: fan them all out.
    const ParallelScheduleRunner runner(config.jobs);
    const std::vector<ResponseComparison> comparisons =
        runner.map<ResponseComparison>(
            levels.size() * static_cast<std::size_t>(traces),
            [&](std::size_t i) {
                const int level =
                    levels[i / static_cast<std::size_t>(traces)];
                const int t =
                    static_cast<int>(i % static_cast<std::size_t>(traces));
                OpenSystemConfig open;
                open.level = level;
                open.numJobs = 24;
                open.seed = config.seed ^
                            static_cast<std::uint64_t>(97 * level + t);
                return compareResponseTimes(config, open);
            });

    const stats::Group byLevel = harness.group("levels");
    for (std::size_t l = 0; l < levels.size(); ++l) {
        RunningStat improvement;
        RunningStat mean_n;
        int phases = 0;
        int resample_job = 0;
        int resample_timer = 0;
        std::string per_trace;
        const stats::Group level =
            byLevel.group(std::to_string(levels[l]));
        stats::Distribution &per_trace_dist = level.distribution(
            "improvement_pct", "per-trace SOS improvement");
        for (int t = 0; t < traces; ++t) {
            const ResponseComparison &comparison =
                comparisons[l * static_cast<std::size_t>(traces) +
                            static_cast<std::size_t>(t)];
            improvement.push(comparison.improvementPct);
            per_trace_dist.sample(comparison.improvementPct);
            mean_n.push(comparison.sos.meanJobsInSystem);
            phases += comparison.sos.samplePhases;
            resample_job += comparison.sos.resamplesOnJobChange;
            resample_timer += comparison.sos.resamplesOnTimer;
            if (t > 0)
                per_trace += " ";
            per_trace += fmt(comparison.improvementPct, 1);
        }
        level.value("mean_jobs_in_system",
                    "mean queue length (Little's law)") = mean_n.mean();
        level.scalar("sample_phases", "sample phases across traces") =
            static_cast<std::uint64_t>(phases);
        level.scalar("resamples_job_change",
                     "resamples triggered by arrivals/departures") =
            static_cast<std::uint64_t>(resample_job);
        level.scalar("resamples_timer",
                     "resamples triggered by the backoff timer") =
            static_cast<std::uint64_t>(resample_timer);
        table.printRow({std::to_string(levels[l]),
                        fmt(improvement.mean(), 1), per_trace,
                        fmt(mean_n.mean(), 1), std::to_string(phases)});
    }

    // The fanned-out comparisons cannot stream decisions (their
    // events would interleave across workers); when a trace was
    // requested, replay the canonical level-3 run serially so the
    // JSONL is deterministic and byte-comparable across runs.
    if (harness.wantsTrace()) {
        OpenSystemConfig open;
        open.level = 3;
        open.numJobs = 24;
        open.seed = config.seed ^ static_cast<std::uint64_t>(97 * 3);
        const std::vector<JobArrival> arrivals =
            makeArrivalTrace(config, open);
        runOpenSystem(config, open, arrivals, OpenPolicy::Sos,
                      &harness.trace());
    }

    std::printf("\n(Paper: improvements between 8%% and nearly 18%%, "
                "including all sampling overhead.)\n");
    return harness.finish();
}
