/**
 * @file
 * Reproduces Table 1: the applications used in every experiment.
 *
 * Purely declarative, but printed by the harness so the reproduction
 * record (EXPERIMENTS.md) can be regenerated entirely from binaries.
 */

#include <cstdio>
#include <string>

#include "sim/bench_harness.hh"
#include "sim/experiment_defs.hh"
#include "sim/reporting.hh"

int
main(int argc, char **argv)
{
    using namespace sos;

    BenchHarness harness({"table1_jobmixes"}, argc, argv);
    const stats::Group mixes = harness.group("mixes");

    printBanner("Table 1: applications used in all experiments");
    TablePrinter table({"Experiment", "Jobs"}, {36, 54});
    table.printHeader();

    auto row = [&](const std::string &label, const JobMix &mix) {
        std::string jobs;
        for (int u = 0; u < mix.numUnits(); ++u) {
            if (u > 0)
                jobs += ",";
            jobs += mix.unitName(u);
        }
        table.printRow({label, jobs});
        const stats::Group entry =
            mixes.group(stats::sanitizeSegment(label));
        entry.info("jobs", "comma-separated unit names") = jobs;
        entry.scalar("units", "hardware units the mix occupies") =
            static_cast<std::uint64_t>(mix.numUnits());
    };

    // Group the throughput experiments that share a jobmix, as the
    // paper's Table 1 does.
    row("Jsb(4,2,2)", experimentByLabel("Jsb(4,2,2)").makeMix(1));
    row("Jsb(5,2,2), Jsb(5,2,1)",
        experimentByLabel("Jsb(5,2,2)").makeMix(1));
    row("Jpb(10,2,2)", experimentByLabel("Jpb(10,2,2)").makeMix(1));
    row("J2pb(10,2,2)", experimentByLabel("J2pb(10,2,2)").makeMix(1));
    row("Jsb(6,3,3), Jsb(6,3,1), Jsl(6,3,1)",
        experimentByLabel("Jsb(6,3,3)").makeMix(1));
    row("Jsb(8,4,4), Jsb(8,4,1), Jsl(8,4,1)",
        experimentByLabel("Jsb(8,4,4)").makeMix(1));
    row("Jsb(12,6,6), Jsb(12,4,4)",
        experimentByLabel("Jsb(12,6,6)").makeMix(1));

    for (const HierarchicalSpec &spec : hierarchicalExperiments())
        row(spec.label, spec.makeMix(1));

    std::printf("\n(FP is fpppp and MG is mgrid from SPEC95; mt_* jobs "
                "are adaptive multithreaded.)\n");
    return harness.finish();
}
