#include "machine_schedule.hh"

#include <algorithm>
#include <numeric>
#include <set>

#include "common/logging.hh"
#include "common/rng.hh"

namespace sos {

namespace {

/** Every unit a schedule names, ascending. */
std::vector<int>
unitsOf(const Schedule &schedule)
{
    std::set<int> units;
    for (const std::vector<int> &tuple : schedule.tuples())
        units.insert(tuple.begin(), tuple.end());
    return {units.begin(), units.end()};
}

std::vector<int>
sortedGroup(const std::vector<int> &group)
{
    std::vector<int> s = group;
    std::sort(s.begin(), s.end());
    return s;
}

} // namespace

MachineSchedule::MachineSchedule(Partition allocation,
                                 std::vector<Schedule> per_core)
    : MachineSchedule(std::move(allocation), std::move(per_core), {})
{
}

MachineSchedule::MachineSchedule(const Schedule &one_core)
    : MachineSchedule({unitsOf(one_core)}, {one_core})
{
}

MachineSchedule::MachineSchedule(Partition allocation,
                                 std::vector<Schedule> per_core,
                                 const std::vector<int> &core_classes)
    : allocation_(std::move(allocation)), perCore_(std::move(per_core))
{
    SOS_ASSERT(!perCore_.empty(), "machine schedule needs cores");
    SOS_ASSERT(allocation_.size() == perCore_.size(),
               "one group per core required");
    SOS_ASSERT(core_classes.empty() ||
                   core_classes.size() == perCore_.size(),
               "one class id per core required");
    for (std::size_t k = 0; k < perCore_.size(); ++k) {
        SOS_ASSERT(!allocation_[k].empty(), "a core with no jobs");
        SOS_ASSERT(perCore_[k].valid(), "invalid per-core schedule");
        if (perCore_.size() == 1) {
            label_ = perCore_[k].label();
            continue;
        }
        if (k > 0)
            label_ += '|';
        label_ += 'c' + std::to_string(k) + '[' +
                  perCore_[k].label() + ']';
    }
    const bool uniform =
        core_classes.empty() ||
        std::all_of(core_classes.begin(), core_classes.end(),
                    [&core_classes](int c) {
                        return c == core_classes.front();
                    });
    if (uniform) {
        // Cores are interchangeable: key on the sorted per-core
        // schedule keys (each key names its global job ids, hence its
        // group).
        std::vector<std::string> parts;
        parts.reserve(perCore_.size());
        for (const Schedule &s : perCore_)
            parts.push_back(s.key());
        std::sort(parts.begin(), parts.end());
        key_ = "M:";
        for (std::size_t k = 0; k < parts.size(); ++k) {
            if (k > 0)
                key_ += '|';
            key_ += parts[k];
        }
        return;
    }
    // Heterogeneous: only same-class cores are interchangeable, so
    // sort (class, schedule key) pairs and tag every part with its
    // class -- permuting unlike cores changes the key.
    std::vector<std::pair<int, std::string>> parts;
    parts.reserve(perCore_.size());
    for (std::size_t k = 0; k < perCore_.size(); ++k)
        parts.emplace_back(core_classes[k], perCore_[k].key());
    std::sort(parts.begin(), parts.end());
    key_ = "M:";
    for (std::size_t k = 0; k < parts.size(); ++k) {
        if (k > 0)
            key_ += '|';
        key_ += std::to_string(parts[k].first) + ':' + parts[k].second;
    }
}

std::uint64_t
MachineSchedule::periodTimeslices() const
{
    std::uint64_t period = 1;
    for (const Schedule &s : perCore_)
        period = std::max(period, s.periodTimeslices());
    return period;
}

MachineScheduleSpace::MachineScheduleSpace(int num_jobs, int num_cores,
                                           int level, int swap)
    : MachineScheduleSpace(num_jobs, num_cores, level, swap, {})
{
}

MachineScheduleSpace::MachineScheduleSpace(int num_jobs, int num_cores,
                                           int level, int swap,
                                           std::vector<int> core_classes)
    : numJobs_(num_jobs), numCores_(num_cores), level_(level),
      swap_(swap)
{
    SOS_ASSERT(num_cores >= 1, "need at least one core");
    SOS_ASSERT(num_jobs >= 1, "need at least one job");
    SOS_ASSERT(num_jobs % num_cores == 0,
               "machine spaces require the cores to divide the jobs");
    groupSize_ = num_jobs / num_cores;
    SOS_ASSERT(groupSize_ >= level,
               "fewer jobs per core than contexts: trivial");
    SOS_ASSERT(swap >= 1 && swap <= level, "1 <= Z <= Y required");
    if (!core_classes.empty()) {
        SOS_ASSERT(static_cast<int>(core_classes.size()) == num_cores,
                   "one class id per core required");
        // Normalise labels to first-appearance order so keys are a
        // function of the partition, not the caller's numbering, and
        // collapse the single-class case onto the homogeneous path.
        std::vector<int> seen;
        classes_.reserve(core_classes.size());
        for (const int label : core_classes) {
            const auto it =
                std::find(seen.begin(), seen.end(), label);
            if (it == seen.end()) {
                classes_.push_back(static_cast<int>(seen.size()));
                seen.push_back(label);
            } else {
                classes_.push_back(
                    static_cast<int>(it - seen.begin()));
            }
        }
        if (seen.size() < 2)
            classes_.clear();
    }
}

std::vector<std::vector<int>>
MachineScheduleSpace::classCores() const
{
    const int num_classes =
        classes_.empty()
            ? 1
            : 1 + *std::max_element(classes_.begin(), classes_.end());
    std::vector<std::vector<int>> out(
        static_cast<std::size_t>(num_classes));
    for (int k = 0; k < numCores_; ++k) {
        const int c = classes_.empty()
                          ? 0
                          : classes_[static_cast<std::size_t>(k)];
        out[static_cast<std::size_t>(c)].push_back(k);
    }
    return out;
}

Partition
MachineScheduleSpace::allocationFromLabels(
    const Partition &groups, const std::vector<int> &labels) const
{
    SOS_ASSERT(groups.size() == labels.size(),
               "one class label per group required");
    const std::vector<std::vector<int>> by_class = classCores();
    Partition allocation(static_cast<std::size_t>(numCores_));
    std::vector<std::size_t> next(by_class.size(), 0);
    // Groups of one class keep their canonical relative order and land
    // on the class's cores in ascending core index: the dedup
    // representative of every within-class permutation.
    for (std::size_t g = 0; g < groups.size(); ++g) {
        const auto c = static_cast<std::size_t>(labels[g]);
        SOS_ASSERT(c < by_class.size() &&
                       next[c] < by_class[c].size(),
                   "class labels do not match the core classes");
        const int core = by_class[c][next[c]++];
        allocation[static_cast<std::size_t>(core)] = groups[g];
    }
    return allocation;
}

std::uint64_t
MachineScheduleSpace::distinctCount() const
{
    if (numJobs_ > 20)
        return ~std::uint64_t{0};
    std::uint64_t count =
        numCores_ == 1 ? 1
                       : equalPartitionCount(numJobs_, groupSize_);
    if (heterogeneous()) {
        // Each unordered partition is additionally coloured by core
        // class: C! / prod_c(n_c!) distinct labelings.
        std::uint64_t ways = factorial(numCores_);
        for (const std::vector<int> &cores : classCores())
            ways /= factorial(static_cast<int>(cores.size()));
        count = mulSaturating(count, ways);
    }
    const std::uint64_t per_core =
        ScheduleSpace(groupSize_, level_, swap_).distinctCount();
    for (int k = 0; k < numCores_; ++k)
        count = mulSaturating(count, per_core);
    return count;
}

std::uint64_t
MachineScheduleSpace::periodTimeslices() const
{
    return ScheduleSpace(groupSize_, level_, swap_).periodTimeslices();
}

std::vector<MachineSchedule>
MachineScheduleSpace::enumerateAll(std::uint64_t limit) const
{
    const std::uint64_t count = distinctCount();
    if (count > limit) {
        fatal("machine schedule space of ", count,
              " schedules exceeds the enumeration limit of ", limit);
    }
    std::vector<MachineSchedule> out;
    out.reserve(static_cast<std::size_t>(count));
    if (!heterogeneous()) {
        for (const Partition &allocation :
             enumerateEqualPartitions(numJobs_, groupSize_)) {
            const std::vector<MachineSchedule> fixed =
                schedulesForAllocation(allocation, limit);
            out.insert(out.end(), fixed.begin(), fixed.end());
        }
        return out;
    }
    // Heterogeneous: every canonical partition is visited under every
    // distinct class labeling of its groups (lexicographic label
    // order via next_permutation over the sorted label multiset).
    std::vector<int> base_labels;
    {
        const std::vector<std::vector<int>> by_class = classCores();
        for (std::size_t c = 0; c < by_class.size(); ++c) {
            base_labels.insert(base_labels.end(), by_class[c].size(),
                               static_cast<int>(c));
        }
        std::sort(base_labels.begin(), base_labels.end());
    }
    for (const Partition &groups :
         enumerateEqualPartitions(numJobs_, groupSize_)) {
        std::vector<int> labels = base_labels;
        do {
            const std::vector<MachineSchedule> fixed =
                schedulesForAllocation(
                    allocationFromLabels(groups, labels), limit);
            out.insert(out.end(), fixed.begin(), fixed.end());
        } while (std::next_permutation(labels.begin(), labels.end()));
    }
    return out;
}

std::vector<MachineSchedule>
MachineScheduleSpace::schedulesForAllocation(const Partition &allocation,
                                             std::uint64_t limit) const
{
    SOS_ASSERT(static_cast<int>(allocation.size()) == numCores_,
               "allocation must cover every core");
    std::vector<std::vector<Schedule>> choices;
    std::vector<std::uint64_t> radices;
    Partition groups;
    for (const std::vector<int> &raw : allocation) {
        SOS_ASSERT(static_cast<int>(raw.size()) == groupSize_,
                   "allocation groups must hold X/C jobs each");
        groups.push_back(sortedGroup(raw));
        choices.push_back(ScheduleSpace(groupSize_, level_, swap_)
                              .enumerateOver(groups.back()));
        radices.push_back(choices.back().size());
    }
    std::uint64_t count = 1;
    for (const std::uint64_t r : radices)
        count = mulSaturating(count, r);
    if (count > limit) {
        fatal("allocation's schedule product of ", count,
              " exceeds the enumeration limit of ", limit);
    }
    std::vector<MachineSchedule> out;
    out.reserve(static_cast<std::size_t>(count));
    for (const std::vector<std::uint64_t> &digits :
         enumerateMixedRadix(radices)) {
        std::vector<Schedule> per_core;
        per_core.reserve(digits.size());
        for (std::size_t k = 0; k < digits.size(); ++k) {
            per_core.push_back(
                choices[k][static_cast<std::size_t>(digits[k])]);
        }
        out.emplace_back(groups, std::move(per_core), classes_);
    }
    return out;
}

MachineSchedule
MachineScheduleSpace::allocationRandom(const Partition &allocation,
                                       Rng &rng) const
{
    SOS_ASSERT(static_cast<int>(allocation.size()) == numCores_,
               "allocation must cover every core");
    Partition groups;
    std::vector<Schedule> per_core;
    for (const std::vector<int> &raw : allocation) {
        SOS_ASSERT(static_cast<int>(raw.size()) == groupSize_,
                   "allocation groups must hold X/C jobs each");
        groups.push_back(sortedGroup(raw));
        per_core.push_back(ScheduleSpace(groupSize_, level_, swap_)
                               .randomOver(groups.back(), rng));
    }
    return MachineSchedule(std::move(groups), std::move(per_core),
                           classes_);
}

MachineSchedule
MachineScheduleSpace::random(Rng &rng) const
{
    Partition allocation;
    if (numCores_ == 1) {
        std::vector<int> everyone(static_cast<std::size_t>(numJobs_));
        std::iota(everyone.begin(), everyone.end(), 0);
        allocation.push_back(std::move(everyone));
    } else {
        allocation = randomEqualPartition(numJobs_, groupSize_, rng);
        if (heterogeneous()) {
            // Colour the canonical groups with a uniformly random
            // class labeling: every distinct (partition, labeling)
            // pair -- i.e. every distinct allocation -- is equally
            // likely.
            std::vector<int> labels;
            for (const int c : classes_)
                labels.push_back(c);
            std::sort(labels.begin(), labels.end());
            rng.shuffle(labels);
            allocation = allocationFromLabels(allocation, labels);
        }
    }
    return allocationRandom(allocation, rng);
}

std::vector<MachineSchedule>
MachineScheduleSpace::sample(int count, Rng &rng) const
{
    SOS_ASSERT(count >= 1);
    const std::uint64_t total = distinctCount();
    if (total <= static_cast<std::uint64_t>(count))
        return enumerateAll();

    std::vector<MachineSchedule> out;
    std::set<std::string> seen;
    // Rejection sampling over canonical keys, as in ScheduleSpace.
    while (out.size() < static_cast<std::size_t>(count)) {
        MachineSchedule s = random(rng);
        if (seen.insert(s.key()).second)
            out.push_back(std::move(s));
    }
    return out;
}

} // namespace sos
