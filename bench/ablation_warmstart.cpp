/**
 * @file
 * Ablation: Section 8's warmstart scheduling, isolated.
 *
 * Runs the 6-job and 8-job mixes under full swap (Z=Y), single swap
 * with the big timeslice (both warmstart effects: longer residency
 * and less swap pressure), and single swap with the little timeslice
 * (which removes the longer-residency effect), reporting the average
 * symbios WS of the sampled schedules in each regime.
 */

#include <cstdio>

#include "sim/batch_experiment.hh"
#include "sim/bench_harness.hh"
#include "sim/reporting.hh"

int
main(int argc, char **argv)
{
    using namespace sos;

    BenchHarness harness({"ablation_warmstart"}, argc, argv);
    const SimConfig &config = harness.config();
    const stats::Group experiments = harness.group("experiments");

    printBanner("Ablation: warmstart scheduling (Section 8)");
    TablePrinter table({"Experiment", "avg WS", "best WS",
                        "resident slices/job"},
                       {12, 7, 8, 20});
    table.printHeader();

    for (const char *label :
         {"Jsb(6,3,3)", "Jsb(6,3,1)", "Jsl(6,3,1)", "Jsb(8,4,4)",
          "Jsb(8,4,1)", "Jsl(8,4,1)"}) {
        const ExperimentSpec &spec = experimentByLabel(label);
        BatchExperiment exp(spec, config);
        exp.runSamplePhase();
        exp.runSymbiosValidation();
        // Consecutive resident timeslices per job: Y/Z, the residency
        // effect the paper credits for most of the warmstart gain.
        const int resident = spec.level / spec.swap;
        const stats::Group entry =
            experiments.group(stats::sanitizeSegment(label));
        exp.publishStats(entry.group("experiment"));
        entry.scalar("resident_slices_per_job",
                     "consecutive resident timeslices (Y/Z)") =
            static_cast<std::uint64_t>(resident);
        if (harness.wantsTrace())
            exp.recordTrace(harness.trace());
        table.printRow({spec.label, fmt(exp.averageWs(), 3),
                        fmt(exp.bestWs(), 3),
                        std::to_string(resident)});
    }

    std::printf("\n(Paper: swapping one job at a time with the big "
                "timeslice gains ~7%%; with the little timeslice the "
                "gain is negligible, isolating the residency effect.)\n");
    return harness.finish();
}
