/**
 * @file
 * Unit tests for the hierarchical statistics registry: typed stats,
 * values held from registration on, path validation, groups, and the
 * text/JSON sinks. Registration errors throw std::invalid_argument, so every
 * failure mode here is testable without death tests.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "cpu/perf_counters.hh"
#include "stats/json.hh"
#include "stats/stats.hh"
#include "stats/trace.hh"

namespace sos::stats {
namespace {

TEST(Registry, DuplicatePathThrows)
{
    Registry registry;
    registry.scalar("core.cycles");
    EXPECT_THROW(registry.scalar("core.cycles"), std::invalid_argument);
    // A duplicate of a different kind is still a duplicate.
    EXPECT_THROW(registry.value("core.cycles"), std::invalid_argument);
}

TEST(Registry, LeafMayNotShadowSubtree)
{
    Registry registry;
    registry.scalar("core.mem.l1d.hits");
    // "core.mem" would become both an interior node and a leaf.
    EXPECT_THROW(registry.scalar("core.mem"), std::invalid_argument);
    EXPECT_THROW(registry.scalar("core"), std::invalid_argument);
}

TEST(Registry, PathMayNotNestUnderLeaf)
{
    Registry registry;
    registry.scalar("core.cycles");
    EXPECT_THROW(registry.scalar("core.cycles.user"),
                 std::invalid_argument);
}

TEST(Registry, MalformedPathsThrow)
{
    Registry registry;
    EXPECT_THROW(registry.scalar(""), std::invalid_argument);
    EXPECT_THROW(registry.scalar(".cycles"), std::invalid_argument);
    EXPECT_THROW(registry.scalar("cycles."), std::invalid_argument);
    EXPECT_THROW(registry.scalar("a..b"), std::invalid_argument);
    EXPECT_THROW(registry.scalar("a b"), std::invalid_argument);
    EXPECT_THROW(registry.scalar("a\"b"), std::invalid_argument);
    EXPECT_THROW(registry.scalar("a\\b"), std::invalid_argument);
    EXPECT_TRUE(registry.empty());
}

TEST(Registry, SiblingsAndDistinctSubtreesCoexist)
{
    Registry registry;
    registry.scalar("core.mem.l1d.hits");
    registry.scalar("core.mem.l1d.misses");
    registry.scalar("core.mem.l2.hits");
    registry.value("sweep.candidate0.ws");
    EXPECT_EQ(registry.size(), 4u);
}

TEST(Registry, SortedIsLexicographicByPath)
{
    Registry registry;
    registry.scalar("b");
    registry.scalar("a.z");
    registry.scalar("a.b");
    const auto stats = registry.sorted();
    ASSERT_EQ(stats.size(), 3u);
    EXPECT_EQ(stats[0]->path(), "a.b");
    EXPECT_EQ(stats[1]->path(), "a.z");
    EXPECT_EQ(stats[2]->path(), "b");
}

TEST(Registry, FindReturnsNullForUnknown)
{
    Registry registry;
    registry.scalar("x");
    EXPECT_NE(registry.find("x"), nullptr);
    EXPECT_EQ(registry.find("y"), nullptr);
}

TEST(Scalar, OwnedValueAndIncrement)
{
    Registry registry;
    Scalar &s = registry.scalar("count");
    EXPECT_EQ(s.value(), 0u);
    s = 5;
    s += 3;
    EXPECT_EQ(s.value(), 8u);
}

TEST(Value, HoldsAssignedValue)
{
    Registry registry;
    Value &owned = registry.value("ws.owned");
    EXPECT_DOUBLE_EQ(owned.value(), 0.0);
    owned = 2.5;
    EXPECT_DOUBLE_EQ(owned.value(), 2.5);
}

TEST(PerfCountersStats, RenderTheValuesTheyWereRegisteredWith)
{
    Registry registry;
    auto counters = std::make_unique<PerfCounters>();
    counters->cycles = 100;
    counters->retired = 250;
    counters->l1dHits = 9;
    counters->l1dMisses = 1;
    counters->confRob = 20;
    counters->slotRetired[1] = 250;
    counters->registerStats(Group(registry, "core"));

    // The run goes on after it published, and then its counters die:
    // neither reaches the registry.
    counters->cycles = 1000;
    counters->retired = 7;
    counters->l1dMisses = 91;
    counters->confRob = 0;
    counters->slotRetired[1] = 7;
    counters.reset();

    std::string out;
    JsonWriter json(&out);
    writeJsonTree(registry, json);
    for (const char *expected :
         {"\"cycles\":100", "\"retired\":250",
          "\"l1d\":{\"hits\":9,\"misses\":1}",
          "\"rob\":20", "\"ipc\":2.5", "\"l1d_hit_rate\":0.9",
          "\"all_conflict_pct\":20", "\"slot_retired\":[0,250,"})
        EXPECT_NE(out.find(expected), std::string::npos)
            << expected << " in " << out;
}

TEST(Distribution, SummaryStatistics)
{
    Registry registry;
    Distribution &d = registry.distribution("improvement");
    d.samples({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
    EXPECT_EQ(d.count(), 8u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_NEAR(d.stddev(), 2.0, 1e-12); // textbook population stddev
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 9.0);
}

TEST(Distribution, EmptyRendersZeros)
{
    Registry registry;
    Distribution &d = registry.distribution("empty");
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 0.0);
}

TEST(Vector, NamedAndUnnamedMayNotMix)
{
    Registry registry;
    Vector &unnamed = registry.vector("plain");
    unnamed.push(1.0).push(2.0);
    EXPECT_THROW(unnamed.push("late_name", 3.0), std::invalid_argument);

    Vector &named = registry.vector("named");
    named.push("a", 1.0).push("b", 2.0);
    EXPECT_THROW(named.push(3.0), std::invalid_argument);
    EXPECT_EQ(named.size(), 2u);
}

TEST(Info, HoldsStrings)
{
    Registry registry;
    Info &label = registry.info("schedule");
    label = "012|345";
    EXPECT_EQ(label.value(), "012|345");
    EXPECT_EQ(label.renderText(), "012|345");
}

TEST(SanitizeSegment, PassThroughAndReplacement)
{
    // Schedule-space labels survive verbatim.
    EXPECT_EQ(sanitizeSegment("Jsb(6,3,3)"), "Jsb(6,3,3)");
    EXPECT_EQ(sanitizeSegment("smt4"), "smt4");
    // Dots, whitespace and control characters become '_' so a raw
    // label can never change the tree shape.
    EXPECT_EQ(sanitizeSegment("x1.50"), "x1_50");
    EXPECT_EQ(sanitizeSegment("a b\tc"), "a_b_c");
    EXPECT_EQ(sanitizeSegment("012|345"), "012_345");
    EXPECT_EQ(sanitizeSegment(""), "_");
}

TEST(Group, PrefixesAndSanitizesChildSegments)
{
    Registry registry;
    const Group root(registry);
    const Group l1d = root.group("core0").group("mem").group("l1d");
    l1d.scalar("hits");
    EXPECT_NE(registry.find("core0.mem.l1d.hits"), nullptr);

    // A dotted child name cannot escape into a different subtree.
    const Group sneaky = root.group("a.b");
    sneaky.scalar("x");
    EXPECT_NE(registry.find("a_b.x"), nullptr);
    EXPECT_EQ(registry.find("a.b.x"), nullptr);
}

TEST(RenderText, AlignedWithDescriptions)
{
    Registry registry;
    registry.scalar("a.long.path.hits", "cache hits") = 7;
    registry.value("b") = 1.5;
    const std::string text = renderText(registry);
    EXPECT_EQ(text,
              "a.long.path.hits  7  # cache hits\n"
              "b                 1.5\n");
}

TEST(WriteJsonTree, NestsDottedPaths)
{
    Registry registry;
    registry.scalar("core.mem.l1d.hits") = 9;
    registry.scalar("core.mem.l1d.misses") = 1;
    registry.value("core.ipc") = 2.5;
    registry.info("label") = "mix";

    std::string out;
    JsonWriter json(&out);
    writeJsonTree(registry, json);
    EXPECT_TRUE(json.complete());
    EXPECT_EQ(out,
              "{\"core\":{\"ipc\":2.5,\"mem\":{\"l1d\":{\"hits\":9,"
              "\"misses\":1}}},\"label\":\"mix\"}");
}

TEST(WriteJsonTree, VectorAndDistributionLeaves)
{
    Registry registry;
    registry.vector("plain").push(1.0).push(2.5);
    registry.vector("named").push("a", 1.0);
    registry.distribution("dist").sample(3.0);

    std::string out;
    JsonWriter json(&out);
    writeJsonTree(registry, json);
    EXPECT_EQ(out,
              "{\"dist\":{\"count\":1,\"mean\":3,\"stddev\":0,"
              "\"min\":3,\"max\":3},\"named\":{\"a\":1},"
              "\"plain\":[1,2.5]}");
}

TEST(FormatDouble, RoundTripsExactly)
{
    for (const double v :
         {0.0, 1.0, -1.5, 1.0 / 3.0, 0.1, 1e-300, 1e300, 2.5e-7,
          3.141592653589793, std::numeric_limits<double>::denorm_min()}) {
        const std::string text = formatDouble(v);
        EXPECT_EQ(std::strtod(text.c_str(), nullptr), v)
            << "for " << text;
    }
    // Non-finite values have no JSON literal.
    EXPECT_EQ(formatDouble(std::nan("")), "null");
    EXPECT_EQ(formatDouble(std::numeric_limits<double>::infinity()),
              "null");
}

TEST(EscapeJson, ControlAndQuoteCharacters)
{
    EXPECT_EQ(escapeJson("plain"), "plain");
    EXPECT_EQ(escapeJson("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(escapeJson("line\nbreak"), "line\\nbreak");
}

TEST(EventTrace, RendersOneJsonObjectPerLine)
{
    EventTrace trace;
    trace.event("sample_candidate")
        .field("index", 3)
        .field("schedule", "012|345")
        .field("ws", 1.5)
        .field("warm", true);
    trace.event("symbios_pick").field("pick",
                                      static_cast<std::uint64_t>(7));
    EXPECT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace.render(),
              "{\"event\":\"sample_candidate\",\"index\":3,"
              "\"schedule\":\"012|345\",\"ws\":1.5,\"warm\":true}\n"
              "{\"event\":\"symbios_pick\",\"pick\":7}\n");
}

TEST(EventTrace, PhaseStrideKeepsEveryNthGroup)
{
    EventTrace trace;
    trace.setPhaseStride(2);
    trace.event("preamble").field("kept", true); // before any opener
    for (int phase = 0; phase < 4; ++phase) {
        trace.event("sample_phase_begin").field("phase", phase);
        trace.event("symbios_pick").field("phase", phase);
    }
    // Groups 0 and 2 survive, each with its follower event.
    EXPECT_EQ(trace.size(), 5u);
    EXPECT_EQ(trace.render(),
              "{\"event\":\"preamble\",\"kept\":true}\n"
              "{\"event\":\"sample_phase_begin\",\"phase\":0}\n"
              "{\"event\":\"symbios_pick\",\"phase\":0}\n"
              "{\"event\":\"sample_phase_begin\",\"phase\":2}\n"
              "{\"event\":\"symbios_pick\",\"phase\":2}\n");
}

TEST(EventTrace, DefaultStrideRecordsEverything)
{
    EventTrace trace;
    for (int phase = 0; phase < 3; ++phase)
        trace.event("sample_phase_begin").field("phase", phase);
    EXPECT_EQ(trace.size(), 3u);
}

TEST(EventTrace, ContextFieldsStampEveryEvent)
{
    EventTrace trace;
    trace.setContextField("node", "3");
    trace.event("sample_phase_begin").field("phase", 0);
    EXPECT_EQ(trace.render(),
              "{\"event\":\"sample_phase_begin\",\"node\":3,"
              "\"phase\":0}\n");
}

TEST(EventTrace, AppendConcatenatesTraces)
{
    EventTrace main_trace;
    main_trace.event("dispatch_epoch").field("epoch", 0);
    EventTrace node_trace;
    node_trace.setContextField("node", "1");
    node_trace.event("sample_phase_begin").field("phase", 0);
    main_trace.append(node_trace);
    EXPECT_EQ(main_trace.render(),
              "{\"event\":\"dispatch_epoch\",\"epoch\":0}\n"
              "{\"event\":\"sample_phase_begin\",\"node\":1,"
              "\"phase\":0}\n");
}

TEST(JsonWriter, ArraysObjectsAndNull)
{
    std::string out;
    JsonWriter json(&out);
    json.beginObject();
    json.key("xs");
    json.beginArray();
    json.number(1);
    json.null();
    json.boolean(false);
    json.endArray();
    json.endObject();
    EXPECT_TRUE(json.complete());
    EXPECT_EQ(out, "{\"xs\":[1,null,false]}");
}

} // namespace
} // namespace sos::stats
