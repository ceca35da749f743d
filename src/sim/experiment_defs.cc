#include "experiment_defs.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sched/schedule.hh"
#include "sim/sim_config.hh"

namespace sos {

int
ExperimentSpec::numUnits() const
{
    int n = 0;
    for (const Entry &entry : entries)
        n += entry.threads;
    return n;
}

JobMix
ExperimentSpec::makeMix(std::uint64_t seed) const
{
    JobMix mix(seed);
    for (const Entry &entry : entries) {
        if (entry.threads > 1)
            mix.addParallelJob(entry.workload, entry.threads);
        else
            mix.addJob(entry.workload);
    }
    SOS_ASSERT(mix.numUnits() == numUnits());
    return mix;
}

namespace {

using Entry = ExperimentSpec::Entry;

std::vector<Entry>
singles(const std::vector<std::string> &names)
{
    std::vector<Entry> out;
    for (const auto &name : names)
        out.push_back(Entry{name, 1});
    return out;
}

std::vector<ExperimentSpec>
buildExperiments()
{
    std::vector<ExperimentSpec> out;

    // Table 2 order. Jobs per Table 1.
    out.push_back({"Jsb(4,2,2)", singles({"FP", "MG", "GCC", "IS"}),
                   2, 2, false});
    out.push_back({"Jsb(5,2,2)",
                   singles({"FP", "MG", "WAVE", "GCC", "GO"}), 2, 2,
                   false});
    // Table 1 calls this Jsl(5,2,1) but Table 2's 250 M-cycle sample
    // phase implies the big timeslice; we follow Table 2.
    out.push_back({"Jsb(5,2,1)",
                   singles({"FP", "MG", "WAVE", "GCC", "GO"}), 2, 1,
                   false});

    const std::vector<Entry> parallel_mix = {
        {"FP", 1},     {"MG", 1},  {"WAVE", 1}, {"SWIM", 1},
        {"SU2COR", 1}, {"TURB3D", 1}, {"GCC", 1}, {"GCC", 1},
        {"ARRAY", 2},
    };
    out.push_back({"Jpb(10,2,2)", parallel_mix, 2, 2, false});

    std::vector<Entry> parallel_mix2 = parallel_mix;
    parallel_mix2.back() = {"ARRAY2", 2};
    out.push_back({"J2pb(10,2,2)", parallel_mix2, 2, 2, false});

    const auto six = singles({"FP", "MG", "WAVE", "GCC", "GCC", "GO"});
    out.push_back({"Jsb(6,3,3)", six, 3, 3, false});
    out.push_back({"Jsb(6,3,1)", six, 3, 1, false});
    out.push_back({"Jsl(6,3,1)", six, 3, 1, true});

    const auto eight = singles(
        {"FP", "MG", "WAVE", "SWIM", "GCC", "GCC", "GO", "IS"});
    out.push_back({"Jsb(8,4,4)", eight, 4, 4, false});
    out.push_back({"Jsb(8,4,1)", eight, 4, 1, false});
    out.push_back({"Jsl(8,4,1)", eight, 4, 1, true});

    const auto twelve =
        singles({"FP", "MG", "WAVE", "SWIM", "SU2COR", "TURB3D", "GCC",
                 "GCC", "GO", "IS", "CG", "EP"});
    out.push_back({"Jsb(12,4,4)", twelve, 4, 4, false});
    out.push_back({"Jsb(12,6,6)", twelve, 6, 6, false});

    return out;
}

} // namespace

const std::vector<ExperimentSpec> &
paperExperiments()
{
    static const std::vector<ExperimentSpec> experiments =
        buildExperiments();
    return experiments;
}

const ExperimentSpec &
experimentByLabel(const std::string &label)
{
    for (const ExperimentSpec &spec : paperExperiments()) {
        if (spec.label == label)
            return spec;
    }
    fatal("unknown experiment '", label, "'");
}

const std::vector<ExperimentSpec> &
machineExperiments()
{
    // The Jsb(8,4,4) jobs (Table 1) redistributed over a CMP: the
    // same eight single-threaded jobs on two and on four two-way
    // cores. Jm(8,2,2,2) has 35 allocations x 3^2 per-core schedules
    // = 315 machine schedules; Jm(8,4,2,2) has 105.
    static const std::vector<ExperimentSpec> experiments = [] {
        const auto eight = singles(
            {"FP", "MG", "WAVE", "SWIM", "GCC", "GCC", "GO", "IS"});
        return std::vector<ExperimentSpec>{
            {"Jm(8,2,2,2)", eight, 2, 2, false, 2},
            {"Jm(8,4,2,2)", eight, 2, 2, false, 4},
        };
    }();
    return experiments;
}

JobMix
HierarchicalSpec::makeMix(std::uint64_t seed) const
{
    JobMix mix(seed);
    for (const std::string &name : workloads) {
        if (name.rfind("mt_", 0) == 0)
            mix.addAdaptiveJob(name);
        else
            mix.addJob(name);
    }
    return mix;
}

const std::vector<HierarchicalSpec> &
hierarchicalExperiments()
{
    static const std::vector<HierarchicalSpec> experiments = {
        {"SMT level 2", 2, {"CG", "mt_ARRAY", "EP"}},
        {"SMT level 3", 3, {"FP", "MG", "WAVE", "mt_EP", "CG"}},
        {"SMT level 4", 4, {"FP", "MG", "WAVE", "mt_ARRAY", "EP", "CG"}},
        {"SMT level 6", 6,
         {"FP", "MG", "WAVE", "GO", "IS", "GCC", "mt_ARRAY", "EP", "CG",
          "FT"}},
    };
    return experiments;
}

const std::vector<std::string> &
openSystemWorkloads()
{
    static const std::vector<std::string> workloads = {
        "FP", "MG", "WAVE", "SWIM", "SU2COR", "TURB3D",
        "GCC", "GO", "IS", "CG", "EP", "FT",
    };
    return workloads;
}

std::uint64_t
hashLabel(const std::string &label)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (char c : label)
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    return h;
}

std::uint64_t
expectedDistinctSchedules(const ExperimentSpec &spec)
{
    return ScheduleSpace(spec.numUnits(), spec.level, spec.swap)
        .distinctCount();
}

std::uint64_t
paperSamplePhaseCycles(const ExperimentSpec &spec)
{
    const ScheduleSpace space(spec.numUnits(), spec.level, spec.swap);
    const std::uint64_t sampled =
        std::min<std::uint64_t>(10, space.distinctCount());
    const std::uint64_t timeslice = spec.little
                                        ? SimConfig::paperLittleTimeslice
                                        : SimConfig::paperTimeslice;
    return sampled * space.periodTimeslices() * timeslice;
}

} // namespace sos
