/**
 * @file
 * stats::Quantile: streaming percentiles within log-bucket tolerance.
 */

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "stats/json.hh"
#include "stats/stats.hh"

namespace sos::stats {
namespace {

/** Exact quantile of a sorted sample: the ceil(q*n)-th smallest. */
double
exactQuantile(std::vector<double> sorted, double q)
{
    std::sort(sorted.begin(), sorted.end());
    const auto n = static_cast<double>(sorted.size());
    auto rank = static_cast<std::size_t>(std::ceil(q * n));
    rank = std::max<std::size_t>(1, std::min(sorted.size(), rank));
    return sorted[rank - 1];
}

/** One bucket of relative tolerance (2^-kSubBits), plus the unit. */
void
expectWithinBucket(double estimate, double exact)
{
    const double tolerance =
        exact / static_cast<double>(1 << Quantile::kSubBits) + 1.0;
    EXPECT_NEAR(estimate, exact, tolerance)
        << "exact=" << exact << " estimate=" << estimate;
}

TEST(Quantile, EmptyRendersZeros)
{
    Quantile stat("q", "");
    EXPECT_EQ(stat.count(), 0u);
    EXPECT_EQ(stat.quantile(0.5), 0.0);
    EXPECT_EQ(stat.mean(), 0.0);
    EXPECT_EQ(stat.max(), 0.0);
}

TEST(Quantile, PinsPercentilesAgainstSortedValues)
{
    // Exponential-ish spread over five decades, like response times.
    Rng rng(0x9a11e7);
    std::vector<double> values;
    for (int i = 0; i < 20000; ++i)
        values.push_back(std::floor(rng.exponential(250000.0)));

    Quantile stat("q", "");
    stat.samples(values);
    ASSERT_EQ(stat.count(), values.size());

    for (const double q : {0.50, 0.95, 0.99})
        expectWithinBucket(stat.quantile(q), exactQuantile(values, q));

    // count/mean/min/max are tracked exactly, not via buckets.
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    EXPECT_DOUBLE_EQ(stat.mean(),
                     sum / static_cast<double>(values.size()));
    EXPECT_DOUBLE_EQ(stat.min(),
                     *std::min_element(values.begin(), values.end()));
    EXPECT_DOUBLE_EQ(stat.max(),
                     *std::max_element(values.begin(), values.end()));
}

TEST(Quantile, SmallIntegerSamplesAreExact)
{
    // Values below 2^kSubBits get unit-width buckets: percentiles of
    // small samples are exact, not approximated.
    Quantile stat("q", "");
    for (int v = 1; v <= 20; ++v)
        stat.sample(static_cast<double>(v));
    EXPECT_DOUBLE_EQ(stat.quantile(0.50), 10.0);
    EXPECT_DOUBLE_EQ(stat.quantile(0.95), 19.0);
    EXPECT_DOUBLE_EQ(stat.quantile(1.00), 20.0);
}

TEST(Quantile, OrderIndependent)
{
    // The histogram is a pure function of the multiset of samples, so
    // any accumulation order renders identically (the property that
    // lets per-node samples merge deterministically).
    std::vector<double> values;
    Rng rng(7);
    for (int i = 0; i < 500; ++i)
        values.push_back(std::floor(rng.exponential(9999.0)));

    Quantile forward("a", "");
    forward.samples(values);
    std::reverse(values.begin(), values.end());
    Quantile backward("b", "");
    backward.samples(values);
    EXPECT_EQ(forward.renderText(), backward.renderText());
}

TEST(Quantile, RegistersLikeDistribution)
{
    Registry registry;
    Quantile &q = Group(registry).group("cluster").quantile(
        "response", "response-time percentiles");
    q.sample(100.0);
    q.sample(200.0);
    EXPECT_EQ(registry.find("cluster.response"), &q);
    // Duplicate registration still throws like every other kind.
    EXPECT_THROW(registry.quantile("cluster.response"),
                 std::invalid_argument);

    std::string document;
    JsonWriter json(&document);
    writeJsonTree(registry, json);
    EXPECT_NE(document.find("\"p50\""), std::string::npos);
    EXPECT_NE(document.find("\"p95\""), std::string::npos);
    EXPECT_NE(document.find("\"p99\""), std::string::npos);
}

} // namespace
} // namespace sos::stats
