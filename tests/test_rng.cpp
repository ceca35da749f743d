/** @file Unit tests for the deterministic RNG. */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/rng.hh"

namespace sos {
namespace {

TEST(Rng, SameSeedSameStream)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, CopyCheckpointsState)
{
    Rng a(7);
    for (int i = 0; i < 17; ++i)
        a.next();
    Rng checkpoint = a; // a paused job's stream state
    std::vector<std::uint64_t> expected;
    for (int i = 0; i < 50; ++i)
        expected.push_back(a.next());
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(checkpoint.next(), expected[static_cast<std::size_t>(i)]);
}

TEST(Rng, ReseedRestartsStream)
{
    Rng a(99);
    const std::uint64_t first = a.next();
    for (int i = 0; i < 10; ++i)
        a.next();
    a.reseed(99);
    EXPECT_EQ(a.next(), first);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(3);
    for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 100ULL, 1000000007ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowOneAlwaysZero)
{
    Rng rng(5);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(11);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo = saw_lo || v == -3;
        saw_hi = saw_hi || v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(13);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ExponentialMeanMatches)
{
    Rng rng(17);
    const double mean = 250.0;
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(mean);
    EXPECT_NEAR(sum / n, mean, mean * 0.05);
}

TEST(Rng, GeometricAtLeastOne)
{
    Rng rng(19);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(rng.geometric(1.0), 1u);
}

TEST(Rng, GeometricMeanTracksParameter)
{
    Rng rng(23);
    const double mean = 12.0;
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(mean));
    // floor(Exp(mean)) + 1 has mean close to mean + 0.5 for large mean.
    EXPECT_NEAR(sum / n, mean + 0.5, mean * 0.08);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(29);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(31);
    std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    rng.shuffle(v);
    std::set<int> seen(v.begin(), v.end());
    EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, ShuffleActuallyPermutes)
{
    Rng rng(37);
    int moved = 0;
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
        rng.shuffle(v);
        for (std::size_t i = 0; i < v.size(); ++i)
            moved += v[i] != static_cast<int>(i) ? 1 : 0;
    }
    EXPECT_GT(moved, 50);
}

TEST(Mix64, DeterministicAndSpreads)
{
    EXPECT_EQ(mix64(1), mix64(1));
    std::set<std::uint64_t> outputs;
    for (std::uint64_t i = 0; i < 1000; ++i)
        outputs.insert(mix64(i));
    EXPECT_EQ(outputs.size(), 1000u);
}

TEST(Rng, ProbabilityThresholdIsTheExactBoundary)
{
    // The threshold t is the first draw the floating-point compare
    // rejects: draw t - 1 passes `k * 2^-bits < p`, draw t fails.
    for (const int bits : {53, 16}) {
        const double scale = std::ldexp(1.0, bits);
        const std::uint64_t all = std::uint64_t{1} << bits;
        for (const double p :
             {0.3, 1.0 / 3.0, 0.1 + 0.2, 0.5, 0.6, 1e-300, 0x1.0p-60,
              1.0 - 0x1.0p-53, 0x1.0p-20}) {
            const std::uint64_t t = Rng::probabilityThreshold(p, bits);
            ASSERT_GT(t, 0u) << p;
            EXPECT_TRUE(static_cast<double>(t - 1) / scale < p)
                << p << " at " << bits << " bits";
            if (t < all) {
                EXPECT_FALSE(static_cast<double>(t) / scale < p)
                    << p << " at " << bits << " bits";
            }
        }
        EXPECT_EQ(Rng::probabilityThreshold(0.0, bits), 0u);
        EXPECT_EQ(Rng::probabilityThreshold(-0.5, bits), 0u);
        EXPECT_EQ(Rng::probabilityThreshold(std::nan(""), bits), 0u);
        EXPECT_EQ(Rng::probabilityThreshold(1.0, bits), all);
        EXPECT_EQ(Rng::probabilityThreshold(2.5, bits), all);
    }
    // chance(p) and the threshold compare draw the same outcomes.
    Rng a(99);
    Rng b(99);
    const std::uint64_t t = Rng::probabilityThreshold(0.37);
    for (int i = 0; i < 10000; ++i)
        ASSERT_EQ(a.chance(0.37), (b.next() >> 11) < t);
}

} // namespace
} // namespace sos
