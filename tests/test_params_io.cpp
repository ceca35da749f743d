/** @file Unit tests for textual configuration overrides. */

#include <gtest/gtest.h>

#include <cstdlib>

#include "sim/config_env.hh"
#include "sim/params_io.hh"

namespace sos {
namespace {

TEST(ParamsIo, SetsHarnessFields)
{
    SimConfig config;
    applyOverride(config, "cycleScale=250");
    applyOverride(config, "sampleSchedules=5");
    applyOverride(config, "seed=777");
    EXPECT_EQ(config.cycleScale, 250u);
    EXPECT_EQ(config.sampleSchedules, 5);
    EXPECT_EQ(config.seed, 777u);
}

TEST(ParamsIo, SetsCoreFields)
{
    SimConfig config;
    applyOverride(config, "core.intQueueSize=32");
    applyOverride(config, "core.roundRobinFetch=true");
    applyOverride(config, "core.fpDivLat=20");
    EXPECT_EQ(config.core.intQueueSize, 32);
    EXPECT_TRUE(config.core.roundRobinFetch);
    EXPECT_EQ(config.core.fpDivLat, 20);
}

TEST(ParamsIo, SetsMemFields)
{
    SimConfig config;
    applyOverride(config, "mem.l2.sizeBytes=4194304");
    applyOverride(config, "mem.prefetch.enabled=on");
    applyOverride(config, "mem.memLatency=120");
    EXPECT_EQ(config.mem.l2.sizeBytes, 4194304u);
    EXPECT_TRUE(config.mem.prefetch.enabled);
    EXPECT_EQ(config.mem.memLatency, 120u);
}

TEST(ParamsIo, BooleanSpellings)
{
    SimConfig config;
    for (const char *yes : {"mem.prefetch.enabled=1",
                            "mem.prefetch.enabled=true",
                            "mem.prefetch.enabled=on"}) {
        config.mem.prefetch.enabled = false;
        applyOverride(config, yes);
        EXPECT_TRUE(config.mem.prefetch.enabled) << yes;
    }
    for (const char *no : {"mem.prefetch.enabled=0",
                           "mem.prefetch.enabled=false",
                           "mem.prefetch.enabled=off"}) {
        config.mem.prefetch.enabled = true;
        applyOverride(config, no);
        EXPECT_FALSE(config.mem.prefetch.enabled) << no;
    }
}

TEST(ParamsIo, AppliesInOrder)
{
    SimConfig config;
    applyOverrides(config, {"cycleScale=10", "cycleScale=20"});
    EXPECT_EQ(config.cycleScale, 20u);
}

TEST(ParamsIo, UnknownKeyIsFatal)
{
    SimConfig config;
    EXPECT_DEATH(applyOverride(config, "core.magic=1"),
                 "unknown configuration key");
}

TEST(ParamsIo, MalformedAssignmentIsFatal)
{
    SimConfig config;
    EXPECT_DEATH(applyOverride(config, "cycleScale"), "key=value");
    EXPECT_DEATH(applyOverride(config, "=5"), "key=value");
}

TEST(ParamsIo, BadValueIsFatal)
{
    SimConfig config;
    EXPECT_DEATH(applyOverride(config, "cycleScale=ten"),
                 "not an unsigned integer");
    EXPECT_DEATH(applyOverride(config, "mem.prefetch.enabled=maybe"),
                 "not a boolean");
}

TEST(ParamsIo, CatalogueCoversRoundTrip)
{
    // Every advertised key must accept its own rendered default.
    SimConfig config;
    for (const ParamInfo &info : configurableParams())
        applyOverride(config, info.key + "=" + info.currentValue);
    // And the render must list every key exactly once.
    const std::string rendered = renderConfig(config);
    for (const ParamInfo &info : configurableParams()) {
        const std::string line = info.key + "=";
        EXPECT_NE(rendered.find(line), std::string::npos) << info.key;
    }
}

TEST(ParamsIo, RenderReflectsOverrides)
{
    SimConfig config;
    applyOverride(config, "core.numLsPorts=3");
    EXPECT_NE(renderConfig(config).find("core.numLsPorts=3"),
              std::string::npos);
}

TEST(ParamsIo, KnobParsersAcceptWholeNumbers)
{
    EXPECT_EQ(parseKnobU64("SOS_SEED", "12345"), 12345u);
    EXPECT_EQ(parseKnobU64("SOS_CLUSTER_MEAN_JOB", "30000000"),
              30000000u);
    EXPECT_EQ(parseKnobInt("SOS_CLUSTER_NODES", "4"), 4);
    EXPECT_EQ(parseKnobInt("SOS_CLUSTER_NODES", "-2"), -2);
}

TEST(ParamsIo, KnobParsersNameTheKnob)
{
    // A typo is an error naming the knob, never a silent zero or a
    // truncated prefix.
    EXPECT_DEATH(parseKnobU64("SOS_SEED", "12x"),
                 "SOS_SEED is not an unsigned integer: '12x'");
    EXPECT_DEATH(parseKnobU64("SOS_CLUSTER_JOBS", "1e3"),
                 "SOS_CLUSTER_JOBS is not an unsigned integer");
    EXPECT_DEATH(parseKnobU64("SOS_CLUSTER_MEAN_JOB", "-5"),
                 "SOS_CLUSTER_MEAN_JOB is not an unsigned integer");
    EXPECT_DEATH(parseKnobU64("SOS_CLUSTER_JOBS", ""),
                 "SOS_CLUSTER_JOBS is not an unsigned integer");
    EXPECT_DEATH(parseKnobInt("SOS_CLUSTER_NODES", "four"),
                 "SOS_CLUSTER_NODES is not an integer");
    EXPECT_DEATH(parseKnobInt("SOS_CLUSTER_NODES", "2 nodes"),
                 "SOS_CLUSTER_NODES is not an integer");
}

TEST(ParamsIo, EnvironmentKnobsParseWholeValues)
{
    ::setenv("SOS_SEED", "4242", 1);
    ::setenv("SOS_CYCLE_SCALE", "750", 1);
    const SimConfig config = benchConfigFromEnv();
    ::unsetenv("SOS_SEED");
    ::unsetenv("SOS_CYCLE_SCALE");
    EXPECT_EQ(config.seed, 4242u);
    EXPECT_EQ(config.cycleScale, 750u);
}

TEST(ParamsIo, EnvironmentKnobTyposAreFatal)
{
    // Death tests run in a child process, so the setenv calls do not
    // leak into the rest of the suite.
    EXPECT_DEATH(
        {
            ::setenv("SOS_SEED", "12x", 1);
            benchConfigFromEnv();
        },
        "SOS_SEED is not an unsigned integer");
    EXPECT_DEATH(
        {
            ::setenv("SOS_CYCLE_SCALE", "500x", 1);
            benchConfigFromEnv();
        },
        "SOS_CYCLE_SCALE is not an integer");
    EXPECT_DEATH(
        {
            ::setenv("SOS_CYCLE_SCALE", "0", 1);
            benchConfigFromEnv();
        },
        "SOS_CYCLE_SCALE must be a positive integer");
}

} // namespace
} // namespace sos
