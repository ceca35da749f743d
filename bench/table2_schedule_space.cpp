/**
 * @file
 * Reproduces Table 2: the number of distinct schedules per jobmix and
 * the paper-time length of a 10-schedule sample phase.
 *
 * The schedule counts are exact combinatorics (verified by
 * enumeration for every space small enough to materialize), so this
 * table reproduces the paper's numbers digit-for-digit; the one
 * deviation is Jsl(6,3,1)'s sample cycles, where the paper's
 * unspecified "little" timeslice is taken as paperTimeslice/4
 * (75 M instead of 100 M; see DESIGN.md).
 */

#include <algorithm>
#include <cstdio>
#include <set>

#include "sched/schedule.hh"
#include "sim/bench_harness.hh"
#include "sim/experiment_defs.hh"
#include "sim/reporting.hh"
#include "sim/sim_config.hh"

int
main(int argc, char **argv)
{
    using namespace sos;

    BenchHarness harness({"table2_schedule_space"}, argc, argv);
    const stats::Group spaces = harness.group("spaces");

    printBanner("Table 2: distinct schedules and sample-phase length");
    TablePrinter table({"Experiment", "Distinct Schedules",
                        "Million Sample Cycles", "enum check"},
                       {14, 20, 22, 12});
    table.printHeader();

    for (const ExperimentSpec &spec : paperExperiments()) {
        const ScheduleSpace space(spec.numUnits(), spec.level,
                                  spec.swap);
        const std::uint64_t count = space.distinctCount();

        // Cross-check the closed form by exhaustive enumeration where
        // the space is small enough to hold in memory.
        std::string check = "-";
        if (count <= 6000) {
            std::set<std::string> keys;
            for (const Schedule &s : space.enumerateAll())
                keys.insert(s.key());
            check = keys.size() == count ? "ok" : "MISMATCH";
        }

        table.printRow(
            {spec.label, std::to_string(count),
             std::to_string(paperSamplePhaseCycles(spec) / 1000000),
             check});

        const stats::Group entry =
            spaces.group(stats::sanitizeSegment(spec.label));
        entry.scalar("distinct_schedules",
                     "size of the schedule space") = count;
        entry.scalar("paper_sample_cycles",
                     "paper-time sample-phase length") =
            paperSamplePhaseCycles(spec);
        entry.info("enum_check",
                   "exhaustive-enumeration cross-check result") = check;
    }

    std::printf("\nPaper values: 3/12/12/945/945/10/60/60/35/2520/2520/"
                "5775/462 schedules;\n30/250/250/250/250/100/300/100*/"
                "100/400/100/150/100 M cycles (*our little timeslice "
                "gives 75).\n");
    return harness.finish();
}
