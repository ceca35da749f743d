/**
 * @file
 * Reproduces Figure 1: worst and best weighted speedup of the 13
 * jobmix / multithreading-level / replacement-policy combinations.
 *
 * The paper reports an average best-worst spread of 8% and a maximum
 * of 25% across its sampled schedules; the harness prints the same
 * series plus the observed spread statistics, and a Section 8
 * warmstart readout comparing full-swap to single-swap variants.
 */

#include <cstdio>
#include <memory>

#include "common/stats_util.hh"
#include "sim/batch_experiment.hh"
#include "sim/bench_harness.hh"
#include "sim/reporting.hh"

int
main(int argc, char **argv)
{
    using namespace sos;

    BenchHarness harness({"fig1_ws_range"}, argc, argv);
    const SimConfig &config = harness.config();
    const stats::Group experiments = harness.group("experiments");
    ThreadPool pool(resolveJobs(config.jobs));
    const std::vector<std::unique_ptr<BatchExperiment>> kept =
        runExperiments(paperExperiments(), config, pool);

    printBanner("Figure 1: worst and best weighted speedup");
    TablePrinter table({"Experiment", "worst WS", "best WS", "avg WS",
                        "spread%"},
                       {14, 9, 8, 8, 8});
    table.printHeader();

    RunningStat spread;
    struct Entry
    {
        std::string label;
        double best, worst, avg;
    };
    std::vector<Entry> entries;

    for (const std::unique_ptr<BatchExperiment> &experiment : kept) {
        const BatchExperiment &exp = *experiment;
        const ExperimentSpec &spec = exp.spec();
        exp.publishStats(
            experiments.group(stats::sanitizeSegment(spec.label)));
        if (harness.wantsTrace())
            exp.recordTrace(harness.trace());
        const double pct =
            100.0 * (exp.bestWs() - exp.worstWs()) / exp.worstWs();
        spread.push(pct);
        entries.push_back(
            {spec.label, exp.bestWs(), exp.worstWs(), exp.averageWs()});
        table.printRow({spec.label, fmt(exp.worstWs(), 3),
                        fmt(exp.bestWs(), 3), fmt(exp.averageWs(), 3),
                        fmt(pct, 1)});
    }

    std::printf("\nbest-vs-worst spread: average %.1f%%, max %.1f%% "
                "(paper: average 8%%, max 25%%)\n",
                spread.mean(), spread.max());
    {
        const stats::Group summary = harness.group("spread");
        summary.value("avg_pct", "mean best-vs-worst WS spread") =
            spread.mean();
        summary.value("max_pct", "maximum best-vs-worst WS spread") =
            spread.max();
    }

    // Section 8: warmstart scheduling. Compare each full-swap
    // experiment with its single-swap variants on best WS.
    printBanner("Section 8: warmstart (Z=1) vs full swap");
    TablePrinter warm({"family", "full swap", "Z=1 big", "Z=1 little",
                       "gain%"},
                      {10, 10, 9, 11, 7});
    warm.printHeader();
    auto find = [&](const std::string &label) -> const Entry & {
        for (const Entry &entry : entries) {
            if (entry.label == label)
                return entry;
        }
        fatal("missing ", label);
    };
    struct Family
    {
        const char *name, *full, *big, *little;
    };
    for (const Family &family :
         {Family{"6 jobs", "Jsb(6,3,3)", "Jsb(6,3,1)", "Jsl(6,3,1)"},
          Family{"8 jobs", "Jsb(8,4,4)", "Jsb(8,4,1)", "Jsl(8,4,1)"}}) {
        const Entry &full = find(family.full);
        const Entry &big = find(family.big);
        const Entry &little = find(family.little);
        warm.printRow({family.name, fmt(full.best, 3),
                       fmt(big.best, 3), fmt(little.best, 3),
                       fmt(100.0 * (big.best - full.best) / full.best,
                           1)});
    }
    {
        const Entry &full = find("Jsb(5,2,2)");
        const Entry &big = find("Jsb(5,2,1)");
        warm.printRow({"5 jobs", fmt(full.best, 3), fmt(big.best, 3),
                       "-",
                       fmt(100.0 * (big.best - full.best) / full.best,
                           1)});
    }
    std::printf("\n(The paper reports a ~7%% average warmstart gain "
                "for the big-timeslice Z=1 runs.)\n");
    return harness.finish();
}
