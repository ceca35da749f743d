#include "schedule.hh"

#include <algorithm>
#include <numeric>
#include <set>

#include "common/logging.hh"
#include "common/rng.hh"

namespace sos {

namespace {

std::string
formatTuple(const std::vector<int> &tuple, bool wide)
{
    std::string out;
    for (std::size_t i = 0; i < tuple.size(); ++i) {
        if (wide && i > 0)
            out += '.';
        out += std::to_string(tuple[i]);
    }
    return out;
}

bool
anyWide(const std::vector<std::vector<int>> &tuples)
{
    for (const auto &tuple : tuples) {
        for (int j : tuple) {
            if (j > 9)
                return true;
        }
    }
    return false;
}

/** Every job of a J(X,Y,Z) space under its own index. */
std::vector<int>
everyJob(int num_jobs)
{
    std::vector<int> jobs(static_cast<std::size_t>(num_jobs));
    std::iota(jobs.begin(), jobs.end(), 0);
    return jobs;
}

/** A full-swap schedule from a local partition mapped through @p group. */
Schedule
fromLocalPartition(const Partition &local, const std::vector<int> &group)
{
    Partition mapped;
    mapped.reserve(local.size());
    for (const std::vector<int> &tuple : local)
        mapped.push_back(mapThroughGroup(tuple, group));
    return Schedule::fromPartition(mapped);
}

std::string
formatTuples(const std::vector<std::vector<int>> &tuples)
{
    const bool wide = anyWide(tuples); // consistent across the label
    std::string out;
    for (std::size_t i = 0; i < tuples.size(); ++i) {
        if (i > 0)
            out += '_';
        out += formatTuple(tuples[i], wide);
    }
    return out;
}

} // namespace

Schedule
Schedule::fromPartition(const Partition &partition)
{
    SOS_ASSERT(!partition.empty());
    Schedule s;
    const Partition canon = canonicalPartition(partition);
    s.tuples_.assign(canon.begin(), canon.end());
    s.label_ = formatTuples(s.tuples_);
    s.key_ = "P:" + s.label_;
    return s;
}

Schedule
Schedule::fromRotation(const std::vector<int> &order, int window, int step)
{
    const int x = static_cast<int>(order.size());
    SOS_ASSERT(x >= 2 && window >= 1 && window <= x);
    SOS_ASSERT(step >= 1 && step <= window);
    // Fairness precondition: window starts fall on multiples of
    // gcd(x, step); every job is covered by the same number of windows
    // exactly when that gcd divides the window size.
    SOS_ASSERT(window % gcdInt(x, step) == 0,
               "rotation J(X,Y,Z) is unfair unless gcd(X,Z) divides Y");
    Schedule s;
    const std::vector<int> canon =
        x >= 3 ? canonicalCircular(order) : order;
    const int period = x / gcdInt(x, step);
    for (int t = 0; t < period; ++t) {
        std::vector<int> tuple;
        tuple.reserve(static_cast<std::size_t>(window));
        for (int j = 0; j < window; ++j)
            tuple.push_back(
                canon[static_cast<std::size_t>((t * step + j) % x)]);
        s.tuples_.push_back(std::move(tuple));
    }
    s.label_ = formatTuples(s.tuples_);
    s.key_ = "R:" + formatTuple(canon, anyWide({canon})) + ":" +
             std::to_string(window) +
             ":" + std::to_string(step);
    return s;
}

int
Schedule::appearancesPerPeriod(int job) const
{
    int n = 0;
    for (const auto &tuple : tuples_)
        n += static_cast<int>(
            std::count(tuple.begin(), tuple.end(), job));
    return n;
}

ScheduleSpace::ScheduleSpace(int num_jobs, int level, int swap)
    : numJobs_(num_jobs), level_(level), swap_(swap)
{
    SOS_ASSERT(num_jobs >= 1, "need at least one job");
    SOS_ASSERT(level >= 1, "need at least one context");
    SOS_ASSERT(swap >= 1 && swap <= level, "1 <= Z <= Y required");
    SOS_ASSERT(num_jobs >= level, "fewer jobs than contexts: trivial");
    fullSwap_ = (swap == level) && (num_jobs % level == 0);
}

std::uint64_t
ScheduleSpace::distinctCount() const
{
    if (numJobs_ == level_)
        return 1; // everything runs together; nothing to choose
    // Beyond ~20 jobs the exact count overflows 64 bits; sampling
    // code only needs "far more than we would ever sample".
    if (numJobs_ > 20)
        return ~std::uint64_t{0};
    if (fullSwap_)
        return equalPartitionCount(numJobs_, level_);
    if (numJobs_ < 3)
        return 1;
    return circularOrderCount(numJobs_);
}

std::uint64_t
ScheduleSpace::periodTimeslices() const
{
    if (numJobs_ == level_)
        return 1;
    if (fullSwap_)
        return static_cast<std::uint64_t>(numJobs_ / level_);
    return static_cast<std::uint64_t>(numJobs_ /
                                      gcdInt(numJobs_, swap_));
}

std::vector<Schedule>
ScheduleSpace::enumerateAll(std::uint64_t limit) const
{
    return enumerateOver(everyJob(numJobs_), limit);
}

std::vector<Schedule>
ScheduleSpace::enumerateOver(const std::vector<int> &group,
                             std::uint64_t limit) const
{
    SOS_ASSERT(static_cast<int>(group.size()) == numJobs_,
               "one identifier per job required");
    const std::uint64_t count = distinctCount();
    if (count > limit) {
        fatal("schedule space of ", count,
              " schedules exceeds the enumeration limit of ", limit);
    }
    if (numJobs_ == level_)
        return {Schedule::fromPartition({group})};
    std::vector<Schedule> out;
    if (fullSwap_) {
        for (const Partition &p :
             enumerateEqualPartitions(numJobs_, level_))
            out.push_back(fromLocalPartition(p, group));
        return out;
    }
    for (const auto &order : enumerateCircularOrders(numJobs_)) {
        out.push_back(Schedule::fromRotation(
            mapThroughGroup(order, group), level_, swap_));
    }
    return out;
}

Schedule
ScheduleSpace::random(Rng &rng) const
{
    return randomOver(everyJob(numJobs_), rng);
}

Schedule
ScheduleSpace::randomOver(const std::vector<int> &group, Rng &rng) const
{
    SOS_ASSERT(static_cast<int>(group.size()) == numJobs_,
               "one identifier per job required");
    if (numJobs_ == level_)
        return Schedule::fromPartition({group});
    if (fullSwap_) {
        return fromLocalPartition(
            randomEqualPartition(numJobs_, level_, rng), group);
    }
    return Schedule::fromRotation(
        mapThroughGroup(randomCircularOrder(numJobs_, rng), group),
        level_, swap_);
}

std::vector<Schedule>
ScheduleSpace::sample(int count, Rng &rng) const
{
    SOS_ASSERT(count >= 1);
    const std::uint64_t total = distinctCount();
    if (total <= static_cast<std::uint64_t>(count))
        return enumerateAll();

    std::vector<Schedule> out;
    std::set<std::string> seen;
    // Rejection sampling over canonical keys; the spaces involved are
    // far larger than the sample, so collisions are rare.
    while (out.size() < static_cast<std::size_t>(count)) {
        Schedule s = random(rng);
        if (seen.insert(s.key()).second)
            out.push_back(std::move(s));
    }
    return out;
}

} // namespace sos
