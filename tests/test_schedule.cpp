/** @file Unit tests for schedules and the schedule space (Table 2). */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hh"
#include "sched/schedule.hh"

namespace sos {
namespace {

TEST(Schedule, FromPartitionTuples)
{
    const Schedule s = Schedule::fromPartition({{3, 4, 5}, {0, 1, 2}});
    EXPECT_EQ(s.periodTimeslices(), 2u);
    EXPECT_EQ(s.tupleAt(0), (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(s.tupleAt(1), (std::vector<int>{3, 4, 5}));
    EXPECT_EQ(s.tupleAt(2), s.tupleAt(0)); // circular
    EXPECT_EQ(s.label(), "012_345");
}

TEST(Schedule, PartitionKeyIgnoresTupleOrder)
{
    const Schedule a = Schedule::fromPartition({{0, 1, 2}, {3, 4, 5}});
    const Schedule b = Schedule::fromPartition({{5, 3, 4}, {2, 0, 1}});
    EXPECT_EQ(a.key(), b.key());
}

TEST(Schedule, RotationWindowAndStep)
{
    // Jsb(5,2,2): window 2, step 2 over a circular order of 5.
    const Schedule s =
        Schedule::fromRotation({0, 1, 2, 3, 4}, 2, 2);
    EXPECT_EQ(s.periodTimeslices(), 5u);
    EXPECT_EQ(s.tupleAt(0), (std::vector<int>{0, 1}));
    EXPECT_EQ(s.tupleAt(1), (std::vector<int>{2, 3}));
    EXPECT_EQ(s.tupleAt(2), (std::vector<int>{4, 0}));
    EXPECT_EQ(s.tupleAt(3), (std::vector<int>{1, 2}));
    EXPECT_EQ(s.tupleAt(4), (std::vector<int>{3, 4}));
}

TEST(Schedule, RotationSingleSwapIsFifo)
{
    // Jsb(6,3,1): swapping one job per timeslice slides the window.
    const Schedule s =
        Schedule::fromRotation({0, 1, 2, 3, 4, 5}, 3, 1);
    EXPECT_EQ(s.periodTimeslices(), 6u);
    EXPECT_EQ(s.tupleAt(0), (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(s.tupleAt(1), (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(s.tupleAt(5), (std::vector<int>{5, 0, 1}));
}

TEST(Schedule, RotationKeyInvariantUnderRotationAndReflection)
{
    const Schedule a = Schedule::fromRotation({0, 1, 2, 3, 4}, 2, 1);
    const Schedule b = Schedule::fromRotation({2, 3, 4, 0, 1}, 2, 1);
    const Schedule c = Schedule::fromRotation({4, 3, 2, 1, 0}, 2, 1);
    EXPECT_EQ(a.key(), b.key());
    EXPECT_EQ(a.key(), c.key());
}

TEST(Schedule, FairAppearancesPerPeriod)
{
    // Valid steps for X=6, Y=3 are those with gcd(6, Z) | 3.
    for (int step : {1, 3}) {
        const Schedule s =
            Schedule::fromRotation({0, 1, 2, 3, 4, 5}, 3, step);
        const int expected = s.appearancesPerPeriod(0);
        for (int job = 1; job < 6; ++job)
            EXPECT_EQ(s.appearancesPerPeriod(job), expected)
                << "step " << step;
    }
}

TEST(Schedule, UnfairRotationIsRejected)
{
    // gcd(6, 2) = 2 does not divide the window 3: jobs would appear
    // unequally often, violating the paper's fairness requirement.
    EXPECT_DEATH(Schedule::fromRotation({0, 1, 2, 3, 4, 5}, 3, 2),
                 "unfair");
}

TEST(Schedule, WideIndicesUseDots)
{
    const Schedule s =
        Schedule::fromPartition({{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11}});
    EXPECT_EQ(s.label(), "0.1.2.3.4.5_6.7.8.9.10.11");
}

// ---- ScheduleSpace: every row of the paper's Table 2. ----

// gtest names each case after the raw bytes of its parameter, so the
// struct holds no padding: `reserved` fills the gap before `distinct`
// and is always zero, which keeps the case names the same on every build.
struct Table2Row
{
    Table2Row(int x_, int y_, int z_, std::uint64_t distinct_)
        : x(x_), y(y_), z(z_), distinct(distinct_)
    {
    }

    int x, y, z;
    int reserved = 0;
    std::uint64_t distinct;
};
static_assert(sizeof(Table2Row) == 3 * sizeof(int) + sizeof(int) +
                                       sizeof(std::uint64_t));

class Table2 : public ::testing::TestWithParam<Table2Row>
{
};

TEST_P(Table2, DistinctCountMatchesPaper)
{
    const Table2Row row = GetParam();
    const ScheduleSpace space(row.x, row.y, row.z);
    EXPECT_EQ(space.distinctCount(), row.distinct);
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, Table2,
    ::testing::Values(Table2Row{4, 2, 2, 3},      // Jsb(4,2,2)
                      Table2Row{5, 2, 2, 12},     // Jsb(5,2,2)
                      Table2Row{5, 2, 1, 12},     // Jsb(5,2,1)
                      Table2Row{10, 2, 2, 945},   // Jpb(10,2,2)
                      Table2Row{6, 3, 3, 10},     // Jsb(6,3,3)
                      Table2Row{6, 3, 1, 60},     // Jsb(6,3,1) & Jsl
                      Table2Row{8, 4, 4, 35},     // Jsb(8,4,4)
                      Table2Row{8, 4, 1, 2520},   // Jsb(8,4,1) & Jsl
                      Table2Row{12, 4, 4, 5775},  // Jsb(12,4,4)
                      Table2Row{12, 6, 6, 462})); // Jsb(12,6,6)

TEST(ScheduleSpace, PeriodMatchesPaperSamplePhases)
{
    // One schedule evaluation takes one period of timeslices; the
    // paper's "Million Sample Cycles" column follows from these.
    EXPECT_EQ(ScheduleSpace(4, 2, 2).periodTimeslices(), 2u);
    EXPECT_EQ(ScheduleSpace(5, 2, 2).periodTimeslices(), 5u);
    EXPECT_EQ(ScheduleSpace(10, 2, 2).periodTimeslices(), 5u);
    EXPECT_EQ(ScheduleSpace(6, 3, 3).periodTimeslices(), 2u);
    EXPECT_EQ(ScheduleSpace(6, 3, 1).periodTimeslices(), 6u);
    EXPECT_EQ(ScheduleSpace(8, 4, 4).periodTimeslices(), 2u);
    EXPECT_EQ(ScheduleSpace(8, 4, 1).periodTimeslices(), 8u);
    EXPECT_EQ(ScheduleSpace(12, 4, 4).periodTimeslices(), 3u);
    EXPECT_EQ(ScheduleSpace(12, 6, 6).periodTimeslices(), 2u);
}

TEST(ScheduleSpace, EnumerationIsDistinctAndComplete)
{
    const ScheduleSpace space(6, 3, 3);
    const auto all = space.enumerateAll();
    EXPECT_EQ(all.size(), 10u);
    std::set<std::string> keys;
    for (const Schedule &s : all)
        keys.insert(s.key());
    EXPECT_EQ(keys.size(), 10u);
}

TEST(ScheduleSpace, EnumerationLimitGuards)
{
    const ScheduleSpace space(8, 4, 1); // 2520 schedules
    EXPECT_EQ(space.enumerateAll(3000).size(), 2520u);
}

TEST(ScheduleSpace, SampleReturnsWholeSmallSpace)
{
    Rng rng(1);
    const ScheduleSpace space(4, 2, 2);
    EXPECT_EQ(space.sample(10, rng).size(), 3u); // Jsb(4,2,2) quirk
}

TEST(ScheduleSpace, SampleDistinct)
{
    Rng rng(2);
    const ScheduleSpace space(10, 2, 2); // 945 schedules
    const auto sampled = space.sample(10, rng);
    EXPECT_EQ(sampled.size(), 10u);
    std::set<std::string> keys;
    for (const Schedule &s : sampled)
        keys.insert(s.key());
    EXPECT_EQ(keys.size(), 10u);
}

TEST(ScheduleSpace, SampleSchedulesAreFair)
{
    Rng rng(3);
    const ScheduleSpace space(8, 4, 1);
    for (const Schedule &s : space.sample(10, rng)) {
        for (int job = 0; job < 8; ++job)
            EXPECT_EQ(s.appearancesPerPeriod(job),
                      s.appearancesPerPeriod(0));
    }
}

TEST(ScheduleSpace, AllJobsFitIsSingleSchedule)
{
    const ScheduleSpace space(3, 3, 3);
    EXPECT_EQ(space.distinctCount(), 1u);
    const auto all = space.enumerateAll();
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(all.front().tupleAt(0), (std::vector<int>{0, 1, 2}));
}

TEST(ScheduleSpace, NonDivisibleFullSwapUsesRotation)
{
    // X=5, Y=2, Z=2: the paper's Jsb(5,2,2) rotates a circular order.
    const ScheduleSpace space(5, 2, 2);
    EXPECT_FALSE(space.fullSwap());
    EXPECT_EQ(space.distinctCount(), 12u);
}

TEST(ScheduleSpace, RandomDrawsValidSchedules)
{
    Rng rng(4);
    const ScheduleSpace space(12, 6, 6);
    for (int i = 0; i < 20; ++i) {
        const Schedule s = space.random(rng);
        EXPECT_EQ(s.periodTimeslices(), 2u);
        std::set<int> members;
        for (const auto &tuple : s.tuples())
            members.insert(tuple.begin(), tuple.end());
        EXPECT_EQ(members.size(), 12u);
    }
}

} // namespace
} // namespace sos
