/**
 * @file
 * Unit tests for the host-timing bench report: the --bench flag, the
 * "sos.bench" schema v3 document BenchHarness::finish() writes, its
 * isolation from the manifest, and the determinism of the core-loop
 * microbench's simulated side (the identity probe core_bench.hh
 * promises).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "sim/bench_harness.hh"
#include "sim/config_env.hh"
#include "sim/core_bench.hh"

namespace sos {
namespace {

BenchOptions
parse(std::vector<std::string> args,
      std::uint64_t cycle_scale = makeBenchConfig().cycleScale)
{
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return parseBenchArgs({.tool = "bench", .cycleScale = cycle_scale},
                          static_cast<int>(argv.size()), argv.data());
}

/** A "unit_test" harness over the command line @p args. */
BenchHarness
harnessFor(std::vector<std::string> args)
{
    args.insert(args.begin(), "unit_test");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return BenchHarness({.tool = "unit_test"},
                        static_cast<int>(argv.size()), argv.data());
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/**
 * Register a small sweep: two mixes with 3 and 2 candidate groups,
 * plus sibling stats that must not count as candidates.
 */
void
registerSweep(BenchHarness &harness)
{
    const stats::Group experiments = harness.group("experiments");
    const int candidates[] = {3, 2};
    for (int mix = 0; mix < 2; ++mix) {
        const stats::Group g =
            experiments.group("mix" + std::to_string(mix));
        for (int i = 0; i < candidates[mix]; ++i) {
            const stats::Group c = g.group("candidate" + std::to_string(i));
            c.value("ws", "weighted speedup") = 1.0 + 0.25 * i;
            c.info("schedule", "schedule label") = "s" + std::to_string(i);
        }
        g.value("best_ws", "best candidate") = 1.5;
        g.scalar("candidates_total", "not a candidate group") =
            static_cast<std::uint64_t>(candidates[mix]);
    }
}

TEST(BenchReport, BenchFlagSetsPath)
{
    const BenchOptions options = parse({"bench", "--bench", "out.json"});
    EXPECT_EQ(options.out.bench, "out.json");
    EXPECT_TRUE(options.out.manifest.empty());
    EXPECT_TRUE(options.out.trace.empty());
}

TEST(BenchReport, CycleScaleDefaultYieldsToEnvironmentAndFlags)
{
    // A bench's own default scale < SOS_CYCLE_SCALE < --set.
    const char *prior = std::getenv("SOS_CYCLE_SCALE");
    const std::optional<std::string> saved =
        prior != nullptr ? std::optional<std::string>(prior)
                         : std::nullopt;

    ::unsetenv("SOS_CYCLE_SCALE");
    EXPECT_EQ(parse({"bench"}, 200).config.cycleScale, 200u);
    EXPECT_EQ(parse({"bench"}).config.cycleScale,
              makeBenchConfig().cycleScale);
    ::setenv("SOS_CYCLE_SCALE", "750", 1);
    EXPECT_EQ(parse({"bench"}, 200).config.cycleScale, 750u);
    EXPECT_EQ(parse({"bench", "--set", "cycleScale=20000"}, 200)
                  .config.cycleScale,
              20000u);
    ::unsetenv("SOS_CYCLE_SCALE");
    EXPECT_EQ(parse({"bench", "--set", "cycleScale=20000"}, 200)
                  .config.cycleScale,
              20000u);

    if (saved)
        ::setenv("SOS_CYCLE_SCALE", saved->c_str(), 1);
}

TEST(BenchReportDeathTest, RetiredFlagsAreUnknown)
{
    for (const char *flag :
         {"--bench-sweep", "--bench-core", "--bench-cluster"}) {
        EXPECT_EXIT(parse({"bench", flag, "out.json"}),
                    ::testing::ExitedWithCode(1),
                    std::string("unknown argument '") + flag +
                        "' .*accept .*--trace FILE, --bench FILE")
            << flag;
    }
}

TEST(BenchReport, FinishWritesBenchDocument)
{
    const std::string bench = ::testing::TempDir() + "sos_bench_report.json";
    BenchHarness harness = harnessFor({"--bench", bench});
    registerSweep(harness);
    harness.bench("extra").value("x", "a harness section") = 1.5;
    ASSERT_EQ(harness.finish(), 0);

    const std::string document = readFile(bench);
    EXPECT_EQ(document.rfind("{\"schema\":\"sos.bench\","
                             "\"schema_version\":3,"
                             "\"tool\":\"unit_test\",",
                             0),
              0u)
        << document;
    EXPECT_NE(document.find("\"sample\":\"off\""), std::string::npos);
    EXPECT_NE(document.find("\"extra\":{\"x\":1.5}"), std::string::npos)
        << document;
    // Five candidate<i> groups across the two mixes; the
    // candidates_total sibling is not one.
    EXPECT_NE(document.find("\"timing\":{\"candidates\":5,"),
              std::string::npos)
        << document;
    // The solo references the process-wide table measured.
    EXPECT_NE(document.find("\"solo_refs_measured\":"), std::string::npos)
        << document;
    EXPECT_EQ(document.back(), '\n');
    std::remove(bench.c_str());
}

TEST(BenchReport, ManifestUnchangedByBench)
{
    const std::string dir = ::testing::TempDir();
    const auto run = [&](const std::string &tag, bool bench) {
        const std::string path = dir + "sos_bench_manifest_" + tag;
        std::vector<std::string> args = {"--out", path + ".json"};
        if (bench)
            args.insert(args.end(), {"--bench", path + ".bench.json"});
        BenchHarness harness = harnessFor(args);
        registerSweep(harness);
        if (harness.wantsBench())
            harness.bench("extra").value("x", "host-only stat") = 2.0;
        harness.finish();
        const std::string manifest = readFile(path + ".json");
        std::remove((path + ".json").c_str());
        if (bench)
            std::remove((path + ".bench.json").c_str());
        return manifest;
    };
    const std::string without = run("plain", false);
    const std::string with = run("bench", true);
    EXPECT_FALSE(without.empty());
    EXPECT_EQ(without, with);
    EXPECT_EQ(with.find("elapsed_seconds"), std::string::npos);
}

TEST(BenchReport, CoreBenchSimulatedSideIsDeterministic)
{
    const CoreBenchResult first = runCoreBench(2000);
    const CoreBenchResult second = runCoreBench(2000);
    const int levels[] = {1, 2, 4, 6};
    for (int i = 0; i < CoreBenchResult::numLevels; ++i) {
        const CoreBenchLevel &a = first.levels[static_cast<std::size_t>(i)];
        const CoreBenchLevel &b =
            second.levels[static_cast<std::size_t>(i)];
        EXPECT_EQ(a.contexts, levels[i]);
        EXPECT_EQ(b.contexts, levels[i]);
        EXPECT_GT(a.retired, 0u) << levels[i];
        EXPECT_EQ(a.cycles, b.cycles) << levels[i];
        EXPECT_EQ(a.retired, b.retired) << levels[i];
        EXPECT_EQ(a.ipc, b.ipc) << levels[i];
    }
}

TEST(BenchReport, CoreBenchSimulatedSideMatchesPinnedConstants)
{
    // Two runs of one build agree even if a rewrite changed the model
    // the same way in both, so the simulated side is also pinned to
    // the values the pre-rewrite core produced (retired µops per
    // level at 20000 cycles). Only a deliberate model change may move
    // them.
    const CoreBenchResult result = runCoreBench(20000);
    const int levels[] = {1, 2, 4, 6};
    const std::uint64_t retired[] = {16457, 17226, 20336, 17831};
    for (int i = 0; i < CoreBenchResult::numLevels; ++i) {
        const CoreBenchLevel &level =
            result.levels[static_cast<std::size_t>(i)];
        EXPECT_EQ(level.contexts, levels[i]);
        EXPECT_EQ(level.cycles, 20000u) << levels[i];
        EXPECT_EQ(level.retired, retired[i]) << levels[i];
    }
}

} // namespace
} // namespace sos
