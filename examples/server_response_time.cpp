/**
 * @file
 * Example: SOS on a server with randomly arriving jobs.
 *
 * The Section 9 scenario as an application: jobs arrive with
 * exponential interarrival times and sizes; the same trace is run
 * under the naive arrival-order scheduler and under SOS (sample ->
 * symbios with resampling on arrivals, departures, and a backoff
 * timer), and per-job response times are compared.
 */

#include <algorithm>
#include <cstdio>

#include "common/thread_pool.hh"
#include "sim/open_system.hh"
#include "sim/config_env.hh"
#include "sim/reporting.hh"

int
main()
{
    using namespace sos;

    const SimConfig config = benchConfigFromEnv();

    ThreadPool pool(resolveJobs(config.jobs));

    OpenSystemConfig open;
    open.level = 3;
    open.numJobs = 24;
    open.seed = config.seed ^ 0xd00dULL;
    // Derive the stable arrival rate (the capacity probe) once.
    open.meanInterarrivalPaper = open.effectiveInterarrivalPaper(config, pool);

    printBanner("Server scenario: SMT level 3, random arrivals");
    const auto trace = makeArrivalTrace(config, open, pool);
    std::printf("%d jobs, mean interarrival %s cycles, mean size %s "
                "paper-cycles solo\n\n",
                open.numJobs,
                fmtCycles(config.scaled(open.meanInterarrivalPaper))
                    .c_str(),
                fmtCycles(open.meanJobPaperCycles).c_str());

    const OpenSystemResult naive =
        runOpenSystem(config, open, trace, OpenPolicy::Naive, pool);
    const OpenSystemResult sos =
        runOpenSystem(config, open, trace, OpenPolicy::Sos, pool);

    TablePrinter table({"job", "workload", "naive resp", "SOS resp",
                        "delta%"},
                       {5, 9, 11, 10, 8});
    table.printHeader();
    for (std::size_t j = 0; j < trace.size(); ++j) {
        const double n =
            static_cast<double>(naive.responseByArrival[j]);
        const double s = static_cast<double>(sos.responseByArrival[j]);
        table.printRow({std::to_string(j), trace[j].workload,
                        fmtCycles(naive.responseByArrival[j]),
                        fmtCycles(sos.responseByArrival[j]),
                        fmt(100.0 * (s - n) / n, 1)});
    }

    const double improvement =
        100.0 *
        (naive.meanResponseCycles - sos.meanResponseCycles) /
        naive.meanResponseCycles;
    std::printf("\nmean response: naive %s, SOS %s  ->  SOS improves "
                "response time by %.1f%%\n",
                fmtCycles(static_cast<std::uint64_t>(
                    naive.meanResponseCycles))
                    .c_str(),
                fmtCycles(static_cast<std::uint64_t>(
                    sos.meanResponseCycles))
                    .c_str(),
                improvement);
    std::printf("SOS ran %d sample phases (%s cycles of sampling, "
                "included in the measurement)\n",
                sos.samplePhases, fmtCycles(sos.sampleCycles).c_str());
    return 0;
}
