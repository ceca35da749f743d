/**
 * @file
 * Multicore figure: machine-level SOS on a CMP of SMT cores.
 *
 * Extends the paper's single-core result to the machine model: eight
 * Table 1 jobs on two and on four two-way SMT cores behind one shared
 * L2. For each machine the harness samples distinct machine schedules
 * (thread-to-core allocation + per-core coschedule sequence), runs the
 * symbios validation, and reports
 *
 *  - the best/worst/average machine WS over the sample (the span an
 *    allocation-aware scheduler can exploit), and
 *
 *  - the symbios WS achieved by each thread-to-core allocation policy
 *    (naive packing, random, balanced-icount, synpa) against the
 *    machine-level SOS pick -- the multicore analogue of Figure 1's
 *    best-vs-worst spread.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sim/bench_harness.hh"
#include "sim/batch_experiment.hh"
#include "sim/reporting.hh"

int
main(int argc, char **argv)
{
    using namespace sos;

    BenchHarness harness("fig7_multicore", argc, argv);
    const SimConfig &config = harness.config();
    const stats::Group experiments = harness.group("experiments");

    // A loaded machine config fixes the core count; skip the machines
    // the configured hardware cannot host. Without a config every
    // machine runs (the pre-config sweep).
    std::vector<ExperimentSpec> specs;
    for (const ExperimentSpec &spec : machineExperiments()) {
        if (config.machineCores <= 0 ||
            spec.numCores == config.machineCores)
            specs.push_back(spec);
    }
    ThreadPool pool(resolveJobs(config.jobs));
    // publishStats binds into each experiment, so they must stay
    // alive until the manifest is written.
    const std::vector<std::unique_ptr<BatchExperiment>> kept =
        runExperiments(specs, config, pool);

    printBanner("Figure 7: machine-level SOS on a CMP of SMT cores");
    TablePrinter table({"Machine", "schedules", "worst WS", "best WS",
                        "avg WS", "spread%"},
                       {13, 10, 9, 8, 8, 8});
    table.printHeader();

    for (const std::unique_ptr<BatchExperiment> &experiment : kept) {
        const BatchExperiment &exp = *experiment;
        const double pct =
            100.0 * (exp.bestWs() - exp.worstWs()) / exp.worstWs();
        table.printRow({exp.spec().label,
                        std::to_string(exp.space().distinctCount()),
                        fmt(exp.worstWs(), 3), fmt(exp.bestWs(), 3),
                        fmt(exp.averageWs(), 3), fmt(pct, 1)});
    }

    printBanner("Thread-to-core allocation policies vs machine SOS");
    TablePrinter policies({"Machine", "policy", "allocation", "avg WS",
                           "best WS"},
                          {13, 16, 22, 8, 8});
    policies.printHeader();

    // The paper's four policies; heterogeneous machines additionally
    // run the placement-aware ones (no goldens pin those manifests).
    std::vector<std::string> policy_names = {"naive", "random",
                                             "balanced-icount",
                                             "synpa"};
    if (!config.heteroCores.empty()) {
        policy_names.push_back("big-core-first");
        policy_names.push_back("synpa-class");
    }

    for (std::size_t i = 0; i < kept.size(); ++i) {
        BatchExperiment &exp = *kept[i];
        std::vector<BatchExperiment::PolicyResult> results;
        for (const std::string &name : policy_names) {
            results.push_back(exp.evaluatePolicy(name));
            const BatchExperiment::PolicyResult &result =
                results.back();
            policies.printRow({exp.spec().label, result.policy,
                               result.allocationLabel,
                               fmt(result.avgWs, 3),
                               fmt(result.bestWs, 3)});
        }
        // The machine-level SOS pick, for contrast: the best sampled
        // machine schedule an allocation-aware scheduler converges on.
        policies.printRow({exp.spec().label, "machine-SOS", "(best)",
                           fmt(exp.averageWs(), 3),
                           fmt(exp.bestWs(), 3)});

        const stats::Group expGroup = experiments.group(
            stats::sanitizeSegment(exp.spec().label));
        exp.publishStats(expGroup);
        // Policy outcomes enter the manifest only for heterogeneous
        // machines (no goldens pin those); the homogeneous manifest
        // stays byte-identical to the pre-config-file bench.
        if (!config.heteroCores.empty()) {
            const stats::Group policyStats = expGroup.group("policies");
            for (const BatchExperiment::PolicyResult &result :
                 results) {
                const stats::Group g = policyStats.group(
                    stats::sanitizeSegment(result.policy));
                g.info("allocation", "partition the policy chose") =
                    result.allocationLabel;
                g.value("avg_ws",
                        "mean symbios WS over the allocation") =
                    result.avgWs;
                g.value("best_ws",
                        "best symbios WS over the allocation") =
                    result.bestWs;
            }
        }
        if (harness.wantsTrace())
            exp.recordTrace(harness.trace());
    }

    std::printf("\n(Jobs on one core interact through every pipeline "
                "resource; jobs on different\ncores only through the "
                "shared L2 -- so the allocation dominates the "
                "machine WS\nand counter-driven placement recovers "
                "most of the SOS gain.)\n");
    return harness.finish();
}
