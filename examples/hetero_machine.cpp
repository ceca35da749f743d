/**
 * @file
 * Heterogeneous machine: per-core params from an inline config.
 *
 * Demonstrates the machine-config subsystem end to end:
 *  1. parse a big.LITTLE description (text here; files via
 *     parseMachineConfig / --machine-config / SOS_MACHINE_CONFIG),
 *  2. inspect the instantiated topology and core classes,
 *  3. run a machine-level SOS experiment on the configured CMP,
 *  4. compare thread-to-core policies -- including the
 *     heterogeneity-aware big-core-first and synpa-class, which know
 *     that *which core* a group lands on now matters.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "config/machine_config.hh"
#include "sim/config_env.hh"
#include "sim/batch_experiment.hh"
#include "sim/reporting.hh"

int
main()
{
    using namespace sos;

    SimConfig config = makeFastConfig();

    // One big paper-default core and one narrow little core behind
    // the shared L2. (A file with these lines works identically.)
    const std::string description = R"(
        mem.l2.sizeBytes 2097152

        class big
        class little
          core.fetchWidth 4
          core.dispatchWidth 4
          core.commitWidth 4
          core.numIntUnits 2
          core.numLsPorts 1

        cores big little
    )";
    const ParsedMachineConfig parsed =
        parseMachineConfigText(description, "big_little.inline",
                               config);
    config.machineCores = parsed.numCores;
    config.core = parsed.core;
    config.mem = parsed.mem;
    config.heteroCores = parsed.cores;
    config.heteroCoreMem = parsed.coreMem;
    config.heteroCoreNames = parsed.coreNames;

    printBanner("Configured machine");
    const MachineParams machine = config.machineFor(2, parsed.numCores);
    const std::vector<int> classes = machine.coreClasses();
    for (int k = 0; k < machine.numCores; ++k) {
        std::printf("  core%d: class %d (%s), fetchWidth %d, "
                    "intUnits %d\n",
                    k, classes[static_cast<std::size_t>(k)],
                    parsed.coreNames.empty()
                        ? "-"
                        : parsed.coreNames[static_cast<std::size_t>(k)]
                              .c_str(),
                    machine.coreParams(k).fetchWidth,
                    machine.coreParams(k).numIntUnits);
    }

    // Four jobs on the 2-core machine: sample machine schedules --
    // under heterogeneity, swapping the groups across the two cores
    // is a *different* schedule -- then ask each policy to place.
    const ExperimentSpec spec{
        .label = "Jm(4,2,2,2)-bigLITTLE",
        .entries = {{"FP"}, {"MG"}, {"GCC"}, {"IS"}},
        .numCores = parsed.numCores,
    };

    BatchExperiment experiment(spec, config);
    experiment.runSamplePhase();
    experiment.runSymbiosValidation();

    printBanner(spec.label);
    std::printf("distinct machine schedules: %llu (a homogeneous "
                "2-core machine would have %llu)\n\n",
                static_cast<unsigned long long>(
                    experiment.space().distinctCount()),
                static_cast<unsigned long long>(
                    MachineScheduleSpace(4, 2, 2, 2).distinctCount()));
    std::printf("WS: worst %.3f  avg %.3f  best %.3f\n\n",
                experiment.worstWs(), experiment.averageWs(),
                experiment.bestWs());

    TablePrinter table({"policy", "allocation", "avg WS", "best WS"},
                       {16, 18, 8, 8});
    table.printHeader();
    for (const char *name :
         {"naive", "balanced-icount", "big-core-first", "synpa-class"}) {
        const BatchExperiment::PolicyResult &result =
            experiment.evaluatePolicy(name);
        table.printRow({result.policy, result.allocationLabel,
                        fmt(result.avgWs, 3), fmt(result.bestWs, 3)});
    }
    std::printf("\n(big-core-first routes the highest solo-IPC jobs to "
                "the wide core; synpa-class\nre-ranks the synpa "
                "grouping so the most demanding group gets the most "
                "capable core.)\n");
    return 0;
}
