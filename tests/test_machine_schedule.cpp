/**
 * @file
 * MachineSchedule / MachineScheduleSpace tests: the distinct counts
 * the header advertises, enumeration with canonical-key dedup,
 * core-permutation key invariance, rejection sampling, the
 * fixed-allocation product used by the allocation policies, and the
 * 1-core case that stands in for the paper's single SMT core.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "sched/machine_schedule.hh"
#include "sim/experiment_defs.hh"

namespace sos {
namespace {

TEST(MachineScheduleSpace, DistinctCountsMatchTheClosedForm)
{
    // Jm(8,2,2,2): 35 partitions x 3 schedules per core-of-4.
    EXPECT_EQ(MachineScheduleSpace(8, 2, 2, 2).distinctCount(), 315u);
    // Jm(8,4,2,2): 105 pairings, one schedule per core-of-2.
    EXPECT_EQ(MachineScheduleSpace(8, 4, 2, 2).distinctCount(), 105u);
    // One core degenerates to the single-core space.
    EXPECT_EQ(MachineScheduleSpace(4, 1, 2, 2).distinctCount(),
              ScheduleSpace(4, 2, 2).distinctCount());
    // Rotation (non-full-swap) schedules per core: Jm(8,2,2,1) is
    // 35 * (C(4,2) partitions... no: ScheduleSpace(4,2,1) circular
    // orders) per core.
    const std::uint64_t per_core =
        ScheduleSpace(4, 2, 1).distinctCount();
    EXPECT_EQ(MachineScheduleSpace(8, 2, 2, 1).distinctCount(),
              35u * per_core * per_core);
}

TEST(MachineScheduleSpace, EnumerationIsDistinctAndComplete)
{
    const MachineScheduleSpace space(8, 4, 2, 2);
    const std::vector<MachineSchedule> all = space.enumerateAll();
    EXPECT_EQ(all.size(), space.distinctCount());
    std::set<std::string> keys;
    for (const MachineSchedule &s : all) {
        EXPECT_TRUE(s.valid());
        EXPECT_EQ(s.numCores(), 4);
        keys.insert(s.key());
    }
    EXPECT_EQ(keys.size(), all.size()) << "duplicate canonical keys";
}

TEST(MachineScheduleSpace, KeyIsInvariantUnderCorePermutation)
{
    // Same groups and per-core schedules, cores swapped: one machine.
    const Partition alloc_a = {{0, 1}, {2, 3}};
    const Partition alloc_b = {{2, 3}, {0, 1}};
    const MachineSchedule a(
        alloc_a, {Schedule::fromPartition({{0, 1}}),
                  Schedule::fromPartition({{2, 3}})});
    const MachineSchedule b(
        alloc_b, {Schedule::fromPartition({{2, 3}}),
                  Schedule::fromPartition({{0, 1}})});
    EXPECT_EQ(a.key(), b.key());
    EXPECT_NE(a.label(), b.label()) << "labels keep the core order";
}

TEST(MachineScheduleSpace, SampleDedupsOnKey)
{
    const MachineScheduleSpace space(8, 2, 2, 2);
    Rng rng(0x5eedULL);
    const std::vector<MachineSchedule> sample = space.sample(20, rng);
    EXPECT_EQ(sample.size(), 20u);
    std::set<std::string> keys;
    for (const MachineSchedule &s : sample)
        keys.insert(s.key());
    EXPECT_EQ(keys.size(), sample.size());
}

TEST(MachineScheduleSpace, SampleReturnsWholeSmallSpace)
{
    const MachineScheduleSpace space(4, 2, 2, 2);
    Rng rng(7);
    // 3 pairings x 1 schedule each: asking for more returns all 3.
    const std::vector<MachineSchedule> sample = space.sample(10, rng);
    EXPECT_EQ(sample.size(), space.distinctCount());
}

TEST(MachineScheduleSpace, SchedulesForAllocationIsTheProduct)
{
    const MachineScheduleSpace space(8, 2, 2, 2);
    const Partition allocation = {{0, 2, 4, 6}, {1, 3, 5, 7}};
    const std::vector<MachineSchedule> fixed =
        space.schedulesForAllocation(allocation);
    // 3 distinct schedules per core of 4 jobs at Y=Z=2.
    EXPECT_EQ(fixed.size(), 9u);
    for (const MachineSchedule &s : fixed) {
        EXPECT_EQ(s.allocation()[0], (std::vector<int>{0, 2, 4, 6}));
        EXPECT_EQ(s.allocation()[1], (std::vector<int>{1, 3, 5, 7}));
        // Every tuple stays inside its core's group.
        for (int k = 0; k < s.numCores(); ++k) {
            for (const auto &tuple : s.coreSchedule(k).tuples()) {
                for (int unit : tuple) {
                    EXPECT_TRUE(std::find(s.allocation()[k].begin(),
                                          s.allocation()[k].end(),
                                          unit) !=
                                s.allocation()[k].end());
                }
            }
        }
    }
}

TEST(MachineScheduleSpace, PeriodCoversEveryCore)
{
    const MachineScheduleSpace space(8, 2, 2, 2);
    EXPECT_EQ(space.periodTimeslices(), 2u); // 4 jobs / 2 contexts
    Rng rng(11);
    const MachineSchedule s = space.random(rng);
    EXPECT_EQ(s.periodTimeslices(), 2u);
}

TEST(MachineScheduleSpace, RandomIsDeterministicInTheSeed)
{
    const MachineScheduleSpace space(8, 2, 2, 2);
    Rng a(42), b(42), c(43);
    EXPECT_EQ(space.random(a).key(), space.random(b).key());
    // Different seed streams diverge quickly (not a hard guarantee,
    // but with 315 schedules a collision signals a seeding bug).
    Rng a2(42);
    std::vector<std::string> first, other;
    for (int i = 0; i < 4; ++i) {
        first.push_back(space.random(a2).key());
        other.push_back(space.random(c).key());
    }
    EXPECT_NE(first, other);
}

// --- Heterogeneous machines: core classes partition the symmetry ---

TEST(MachineScheduleSpace, OneCoreDrawsTheSingleCoreSchedules)
{
    // Js(X,Y,Z) is Jm(X,1,Y,Z): for every Table 1 experiment, seed and
    // sample size, the 1-core space draws the ScheduleSpace schedules
    // in the same order and leaves the RNG in the same state -- so a
    // closed experiment's candidates do not depend on which space
    // drew them.
    int cases = 0;
    for (const ExperimentSpec &spec : paperExperiments()) {
        const ScheduleSpace single(spec.numUnits(), spec.level,
                                   spec.swap);
        const MachineScheduleSpace machine(spec.numUnits(), 1,
                                           spec.level, spec.swap);
        EXPECT_EQ(machine.distinctCount(), single.distinctCount());
        EXPECT_EQ(machine.periodTimeslices(), single.periodTimeslices());
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            for (const int count : {3, 10, 24}) {
                SCOPED_TRACE(spec.label + " seed " +
                             std::to_string(seed) + " count " +
                             std::to_string(count));
                Rng single_rng(hashLabel(spec.label) ^ seed);
                Rng machine_rng(hashLabel(spec.label) ^ seed);
                const std::vector<Schedule> expected =
                    single.sample(count, single_rng);
                const std::vector<MachineSchedule> drawn =
                    machine.sample(count, machine_rng);
                ASSERT_EQ(drawn.size(), expected.size());
                for (std::size_t i = 0; i < drawn.size(); ++i) {
                    ASSERT_EQ(drawn[i].numCores(), 1);
                    EXPECT_EQ(drawn[i].label(), expected[i].label());
                    EXPECT_EQ(drawn[i].coreSchedule(0).tuples(),
                              expected[i].tuples());
                    EXPECT_EQ(drawn[i].periodTimeslices(),
                              expected[i].periodTimeslices());
                }
                EXPECT_EQ(machine_rng.next(), single_rng.next())
                    << "the draws consumed different RNG streams";
                ++cases;
            }
        }
    }
    EXPECT_EQ(cases, 195);
}

TEST(MachineSchedule, OneCoreCarriesItsCoreLabel)
{
    const Schedule one = Schedule::fromPartition({{0, 1, 2}, {3, 4, 5}});
    EXPECT_EQ(MachineSchedule(one).label(), "012_345");
    const MachineSchedule lifted({{0, 1, 2, 3, 4, 5}}, {one});
    EXPECT_EQ(lifted.label(), one.label());

    // More cores keep the per-core form.
    const MachineSchedule two(
        {{0, 1}, {2, 3}},
        {Schedule::fromPartition({{0, 1}}),
         Schedule::fromPartition({{2, 3}})});
    EXPECT_EQ(two.label(), "c0[01]|c1[23]");
}

TEST(HeteroMachineScheduleSpace, DistinctCountScalesByClassPartition)
{
    // Two classes of two identical cores each: every homogeneous
    // allocation splits into C!/(n_big! n_little!) = 4!/(2!2!) = 6
    // distinct placements.
    const MachineScheduleSpace hetero(8, 4, 2, 2, {0, 0, 1, 1});
    EXPECT_TRUE(hetero.heterogeneous());
    EXPECT_EQ(hetero.distinctCount(), 105u * 6u);
    // All-distinct cores: the full 2! = 2 factor on the 2-core CMP.
    const MachineScheduleSpace two(8, 2, 2, 2, {0, 1});
    EXPECT_EQ(two.distinctCount(), 315u * 2u);
}

TEST(HeteroMachineScheduleSpace, EnumerationMatchesTheCount)
{
    // Jm(4,2,2,2) on a big.LITTLE pair: 3 pairings x 2 placements.
    const MachineScheduleSpace space(4, 2, 2, 2, {0, 1});
    const std::vector<MachineSchedule> all = space.enumerateAll();
    EXPECT_EQ(all.size(), space.distinctCount());
    EXPECT_EQ(all.size(), 6u);
    std::set<std::string> keys;
    for (const MachineSchedule &s : all) {
        EXPECT_TRUE(s.valid());
        keys.insert(s.key());
    }
    EXPECT_EQ(keys.size(), all.size()) << "duplicate canonical keys";
}

TEST(HeteroMachineScheduleSpace, KeyDistinguishesCrossClassSwaps)
{
    const Partition alloc_a = {{0, 1}, {2, 3}};
    const Partition alloc_b = {{2, 3}, {0, 1}};
    const std::vector<Schedule> sched_a = {
        Schedule::fromPartition({{0, 1}}),
        Schedule::fromPartition({{2, 3}})};
    const std::vector<Schedule> sched_b = {
        Schedule::fromPartition({{2, 3}}),
        Schedule::fromPartition({{0, 1}})};
    // Identical cores: the swap is the same machine schedule.
    EXPECT_EQ(MachineSchedule(alloc_a, sched_a, {0, 0}).key(),
              MachineSchedule(alloc_b, sched_b, {0, 0}).key());
    // Different classes: who runs on the big core matters.
    EXPECT_NE(MachineSchedule(alloc_a, sched_a, {0, 1}).key(),
              MachineSchedule(alloc_b, sched_b, {0, 1}).key());
    // Within-class permutation on a {0,0,1,1} machine still
    // collapses: swap the two class-0 cores only.
    const Partition four_a = {{0, 1}, {2, 3}, {4, 5}, {6, 7}};
    const Partition four_b = {{2, 3}, {0, 1}, {4, 5}, {6, 7}};
    const auto scheds = [](const Partition &p) {
        std::vector<Schedule> out;
        for (const auto &group : p)
            out.push_back(Schedule::fromPartition({group}));
        return out;
    };
    EXPECT_EQ(
        MachineSchedule(four_a, scheds(four_a), {0, 0, 1, 1}).key(),
        MachineSchedule(four_b, scheds(four_b), {0, 0, 1, 1}).key());
    // ...but swapping across the class boundary does not.
    const Partition four_c = {{4, 5}, {2, 3}, {0, 1}, {6, 7}};
    EXPECT_NE(
        MachineSchedule(four_a, scheds(four_a), {0, 0, 1, 1}).key(),
        MachineSchedule(four_c, scheds(four_c), {0, 0, 1, 1}).key());
}

TEST(HeteroMachineScheduleSpace, SingleClassCollapsesToHomogeneous)
{
    // A uniform class vector (whatever its label) is the homogeneous
    // machine: same flag, same counts, same keys, same RNG stream.
    const MachineScheduleSpace plain(8, 2, 2, 2);
    const MachineScheduleSpace labeled(8, 2, 2, 2, {5, 5});
    EXPECT_FALSE(labeled.heterogeneous());
    EXPECT_EQ(labeled.distinctCount(), plain.distinctCount());
    Rng a(42), b(42);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(plain.random(a).key(), labeled.random(b).key());
}

TEST(HeteroMachineScheduleSpace, SampleIsDeterministicAndDistinct)
{
    const MachineScheduleSpace space(8, 2, 2, 2, {0, 1});
    Rng a(0x5eedULL), b(0x5eedULL);
    const std::vector<MachineSchedule> first = space.sample(24, a);
    const std::vector<MachineSchedule> second = space.sample(24, b);
    ASSERT_EQ(first.size(), 24u);
    ASSERT_EQ(second.size(), 24u);
    std::set<std::string> keys;
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].key(), second[i].key());
        keys.insert(first[i].key());
    }
    EXPECT_EQ(keys.size(), first.size());
}

TEST(HeteroMachineScheduleSpace, ClassLabelsNormalizeByFirstUse)
{
    // {7, 3} and {0, 1} describe the same two-singleton partition.
    const MachineScheduleSpace odd(8, 2, 2, 2, {7, 3});
    const MachineScheduleSpace canon(8, 2, 2, 2, {0, 1});
    EXPECT_TRUE(odd.heterogeneous());
    EXPECT_EQ(odd.coreClasses(), canon.coreClasses());
    EXPECT_EQ(odd.distinctCount(), canon.distinctCount());
}

} // namespace
} // namespace sos
