/**
 * @file
 * Open-system determinism regression: two identical SOS runs must
 * produce byte-identical JSONL decision traces and byte-identical run
 * manifests, on both engine backends. This is the contract the CI
 * smoke step checks end-to-end with `cmp`; the test pins the one
 * host-dependent manifest field (gitRev) the same way the
 * adapter-equivalence goldens do.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/thread_pool.hh"
#include "sim/open_system.hh"
#include "sim/params_io.hh"
#include "stats/manifest.hh"
#include "stats/stats.hh"
#include "stats/trace.hh"

namespace sos {
namespace {

SimConfig
fast()
{
    return makeFastConfig();
}

OpenSystemConfig
busySystem(int level, int cores)
{
    OpenSystemConfig config;
    config.level = level;
    config.numCores = cores;
    config.numJobs = 8;
    config.meanJobPaperCycles = 40000000;
    // Dense arrivals so sample phases run (a trace with no decisions
    // would make this test vacuous); also skips the capacity probe.
    config.meanInterarrivalPaper = config.meanJobPaperCycles / 4;
    config.seed = 1203;
    return config;
}

/** One full SOS run rendered as (decision trace, manifest). */
struct Rendered
{
    std::string trace;
    std::string manifest;
    int samplePhases = 0;
};

Rendered
renderRun(const SimConfig &sim, const OpenSystemConfig &config)
{
    ThreadPool pool(resolveJobs(sim.jobs));
    const std::vector<JobArrival> arrivals =
        makeArrivalTrace(sim, config, pool);
    stats::EventTrace events;
    const OpenSystemResult result = runOpenSystem(
        sim, config, arrivals, OpenPolicy::Sos, pool, &events);

    stats::Registry registry;
    const stats::Group open = stats::Group(registry).group("open");
    open.scalar("completed", "jobs completed") =
        static_cast<std::uint64_t>(result.completed);
    open.scalar("sample_phases", "sample phases run") =
        static_cast<std::uint64_t>(result.samplePhases);
    open.scalar("sample_cycles", "cycles spent sampling") =
        result.sampleCycles;
    open.scalar("total_cycles", "simulated cycles") =
        result.totalCycles;
    open.value("mean_response_cycles", "mean job response time") =
        result.meanResponseCycles;
    open.value("mean_jobs_in_system", "mean queue length") =
        result.meanJobsInSystem;

    stats::Manifest manifest;
    manifest.tool = "open_determinism";
    manifest.gitRev = "golden"; // pin the only host-dependent field
    manifest.seed = sim.seed;
    manifest.config = configPairs(sim);

    Rendered rendered;
    rendered.trace = events.render();
    rendered.manifest = renderManifest(manifest, registry);
    rendered.samplePhases = result.samplePhases;
    return rendered;
}

TEST(OpenDeterminism, SmtCoreRunsAreByteIdentical)
{
    const SimConfig sim = fast();
    const OpenSystemConfig config = busySystem(3, 1);
    const Rendered a = renderRun(sim, config);
    const Rendered b = renderRun(sim, config);
    EXPECT_GT(a.samplePhases, 0);
    EXPECT_FALSE(a.trace.empty());
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_EQ(a.manifest, b.manifest);
}

TEST(OpenDeterminism, CmpRunsAreByteIdentical)
{
    const SimConfig sim = fast();
    const OpenSystemConfig config = busySystem(2, 2);
    const Rendered a = renderRun(sim, config);
    const Rendered b = renderRun(sim, config);
    EXPECT_GT(a.samplePhases, 0);
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_EQ(a.manifest, b.manifest);
}

TEST(OpenDeterminism, TraceEventsCarryTheDecisionSchema)
{
    const SimConfig sim = fast();
    const Rendered run = renderRun(sim, busySystem(3, 1));
    // Every sample phase begins with a sample_phase_begin record and
    // phases that ran to completion commit with a symbios_pick.
    EXPECT_NE(run.trace.find("\"event\":\"sample_phase_begin\""),
              std::string::npos);
    EXPECT_NE(run.trace.find("\"event\":\"symbios_pick\""),
              std::string::npos);
    EXPECT_NE(run.trace.find("\"trigger\":"), std::string::npos);
    EXPECT_NE(run.trace.find("\"schedule\":"), std::string::npos);
}

} // namespace
} // namespace sos
