#include "machine_experiment.hh"

#include <algorithm>
#include <memory>

#include "common/logging.hh"
#include "common/rng.hh"
#include "metrics/calibrator.hh"
#include "sim/experiment_defs.hh"
#include "stats/stats.hh"
#include "stats/trace.hh"

namespace sos {

namespace {

std::string
partitionLabel(const Partition &allocation)
{
    std::string out;
    for (const std::vector<int> &group : allocation) {
        out += '{';
        for (std::size_t i = 0; i < group.size(); ++i) {
            if (i > 0)
                out += ',';
            out += std::to_string(group[i]);
        }
        out += '}';
    }
    return out;
}

} // namespace

JobMix
MachineExperimentSpec::makeMix(std::uint64_t seed) const
{
    JobMix mix(seed);
    for (const std::string &workload : workloads)
        mix.addJob(workload);
    return mix;
}

const std::vector<MachineExperimentSpec> &
machineExperiments()
{
    // The Jsb(8,4,4) jobs (Table 1) redistributed over a CMP: the
    // same eight single-threaded jobs on two and on four two-way
    // cores. Jm(8,2,2,2) has 35 allocations x 3^2 per-core schedules
    // = 315 machine schedules; Jm(8,4,2,2) has 105.
    static const std::vector<MachineExperimentSpec> experiments = {
        {"Jm(8,2,2,2)",
         {"FP", "MG", "WAVE", "SWIM", "GCC", "GCC", "GO", "IS"},
         2, 2, 2},
        {"Jm(8,4,2,2)",
         {"FP", "MG", "WAVE", "SWIM", "GCC", "GCC", "GO", "IS"},
         4, 2, 2},
    };
    return experiments;
}

MachineExperiment::MachineExperiment(const MachineExperimentSpec &spec,
                                     const SimConfig &config)
    : spec_(spec), config_(config),
      machineParams_(config.machineFor(spec.level, spec.numCores)),
      space_(spec.numJobs(), spec.numCores, spec.level, spec.swap,
             machineParams_.coreClasses()),
      mix_(spec.makeMix(config.seed ^ hashLabel(spec.label))),
      runner_(config.jobs)
{
    if (space_.heterogeneous())
        coreClasses_ = space_.coreClasses();

    // Solo IPC is a property of one job alone on one core; core 0's
    // configuration is the machine's reference class (on a
    // homogeneous machine that is the one configuration there is).
    // Heterogeneity-aware policies additionally need every job's solo
    // IPC on every core class. Classes are numbered in order of first
    // appearance (class 0 holds core 0), so the first core of each
    // class gets a calibrator, and all of them measure in one batch.
    std::vector<Calibrator> calibrators;
    const int cores = std::max(1, static_cast<int>(coreClasses_.size()));
    for (int k = 0; k < cores; ++k) {
        if (!coreClasses_.empty() &&
            coreClasses_[static_cast<std::size_t>(k)] !=
                static_cast<int>(calibrators.size()))
            continue;
        calibrators.emplace_back(machineParams_.coreParams(k),
                                 machineParams_.memParams(k),
                                 config_.calibWarmupCycles,
                                 config_.calibMeasureCycles);
        calibrators.back().setSampling(config_.sample);
    }
    std::vector<Calibrator::Request> requests;
    for (Calibrator &calibrator : calibrators) {
        for (int j = 0; j < mix_.numJobs(); ++j)
            requests.push_back({&calibrator,
                                {mix_.job(j).name(),
                                 mix_.job(j).numThreads()}});
    }
    const std::vector<double> references =
        Calibrator::measure(requests, config_.jobs);

    const auto jobs = static_cast<std::ptrdiff_t>(mix_.numJobs());
    for (int j = 0; j < mix_.numJobs(); ++j)
        mix_.job(j).soloIpc = references[static_cast<std::size_t>(j)];
    if (coreClasses_.empty())
        return;
    for (std::ptrdiff_t c = 0;
         c < static_cast<std::ptrdiff_t>(calibrators.size()); ++c)
        soloIpcByClass_.emplace_back(references.begin() + c * jobs,
                                     references.begin() + (c + 1) * jobs);
}

std::uint64_t
MachineExperiment::timesliceCycles() const
{
    return config_.timesliceCycles();
}

JobMix
MachineExperiment::freshMix() const
{
    // Every task rebuilds the same mix from the same seed, so all
    // candidates see identical workload streams; the prototype's
    // calibration is copied instead of re-measured.
    JobMix mix = spec_.makeMix(config_.seed ^ hashLabel(spec_.label));
    for (int j = 0; j < mix.numJobs(); ++j)
        mix.job(j).soloIpc = mix_.job(j).soloIpc;
    return mix;
}

MachineSchedule
MachineExperiment::warmupFor(const Partition &allocation) const
{
    std::vector<Schedule> per_core;
    per_core.reserve(allocation.size());
    for (const std::vector<int> &raw : allocation) {
        std::vector<int> group = raw;
        std::sort(group.begin(), group.end());
        per_core.push_back(
            static_cast<int>(group.size()) == spec_.level
                ? Schedule::fromPartition({group})
                : Schedule::fromRotation(group, spec_.level,
                                         spec_.swap));
    }
    return MachineSchedule(allocation, std::move(per_core));
}

ParallelScheduleRunner::SweepSpec
MachineExperiment::sweep(
    const std::vector<MachineSchedule> &schedules) const
{
    ParallelScheduleRunner::SweepSpec recipe;
    recipe.makeMix = [this](std::size_t) { return freshMix(); };
    recipe.machine = machineParams_;
    recipe.timesliceCycles = timesliceCycles();
    // warmupFor() depends on the allocation alone, so candidates that
    // share an allocation share one warmed snapshot.
    recipe.warmup = [this, &schedules](std::size_t i) {
        return warmupFor(schedules[i].allocation());
    };
    recipe.useSnapshot = config_.snapshot;
    recipe.sample = config_.sample;
    return recipe;
}

void
MachineExperiment::runSamplePhase()
{
    Rng rng(config_.seed ^ hashLabel(spec_.label) ^ 0x5a3217e1ULL);
    schedules_ = space_.sample(config_.sampleSchedules, rng);

    const auto periods =
        static_cast<std::uint64_t>(std::max(1, config_.samplePeriods));
    const std::uint64_t timeslices =
        space_.periodTimeslices() * periods;
    std::vector<std::string> labels;
    for (const MachineSchedule &schedule : schedules_)
        labels.push_back(schedule.label());
    ParallelScheduleRunner::SweepSpec recipe = sweep(schedules_);
    recipe.snapshots = &warmed_;
    kernel_.runSamplePhase(
        runner_.runAll(recipe, schedules_,
                       [timeslices](std::size_t) { return timeslices; }),
        labels);
}

void
MachineExperiment::runSymbiosValidation(std::uint64_t symbios_cycles)
{
    const std::uint64_t cycles =
        symbios_cycles > 0 ? symbios_cycles : config_.symbiosCycles();
    const std::uint64_t timeslices =
        std::max<std::uint64_t>(1, cycles / timesliceCycles());

    // Same schedules, same allocations: fork the sample phase's warm
    // states, then let them go.
    ParallelScheduleRunner::SweepSpec recipe = sweep(schedules_);
    recipe.snapshots = &warmed_;
    kernel_.runSymbiosValidation(
        runner_.runAll(recipe, schedules_,
                       [timeslices](std::size_t) { return timeslices; }));
    warmed_.clear();

    // Replay the measured best on a persistent machine so dumps can
    // read live cache and contention counters (publishStats binds,
    // never copies).
    const std::vector<double> &symbios = kernel_.symbiosWs();
    bestIndex_ = static_cast<int>(
        std::max_element(symbios.begin(), symbios.end()) -
        symbios.begin());
    const MachineSchedule &best =
        schedules_[static_cast<std::size_t>(bestIndex_)];
    JobMix mix = freshMix();
    statsMachine_ = std::make_unique<Machine>(machineParams_);
    MachineEngine engine(*statsMachine_, timesliceCycles(),
                         config_.sample);
    const MachineSchedule warm = warmupFor(best.allocation());
    engine.setSampleRecording(false);
    engine.runSchedule(mix, warm, warm.periodTimeslices());
    engine.setSampleRecording(true);
    bestRun_ = engine.runSchedule(mix, best, timeslices);
    engine.evictAll();
}

const MachineExperiment::PolicyResult &
MachineExperiment::evaluatePolicy(const std::string &name,
                                  std::uint64_t symbios_cycles)
{
    SOS_ASSERT(!kernel_.profiles().empty(),
               "run the sample phase first");
    const std::unique_ptr<ThreadToCorePolicy> policy =
        makeThreadToCorePolicy(name);

    AllocationContext ctx;
    ctx.numJobs = spec_.numJobs();
    ctx.numCores = spec_.numCores;
    for (int j = 0; j < mix_.numJobs(); ++j)
        ctx.soloIpc.push_back(mix_.job(j).soloIpc);
    ctx.samples = coscheduleSamples();
    ctx.seed = config_.seed ^ hashLabel(spec_.label);
    ctx.coreClass = coreClasses_;
    ctx.soloIpcByClass = soloIpcByClass_;

    PolicyResult result;
    result.policy = policy->name();
    result.allocation = policy->allocate(ctx);
    result.allocationLabel = partitionLabel(result.allocation);

    const std::vector<MachineSchedule> schedules =
        space_.schedulesForAllocation(result.allocation);
    const std::uint64_t cycles =
        symbios_cycles > 0 ? symbios_cycles : config_.symbiosCycles();
    const std::uint64_t timeslices =
        std::max<std::uint64_t>(1, cycles / timesliceCycles());
    const std::vector<ParallelScheduleRunner::ScheduleRun> runs =
        runner_.runAll(sweep(schedules), schedules,
                       [timeslices](std::size_t) { return timeslices; });

    double total = 0.0;
    double best = 0.0;
    for (const ParallelScheduleRunner::ScheduleRun &run : runs) {
        total += run.ws;
        best = std::max(best, run.ws);
    }
    result.schedulesRun = static_cast<int>(runs.size());
    result.bestWs = best;
    result.avgWs = runs.empty()
                       ? 0.0
                       : total / static_cast<double>(runs.size());
    policyResults_.push_back(std::move(result));
    return policyResults_.back();
}

std::vector<CoscheduleSample>
MachineExperiment::coscheduleSamples() const
{
    const std::vector<ScheduleProfile> &profiles = kernel_.profiles();
    std::vector<CoscheduleSample> samples;
    samples.reserve(profiles.size());
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        CoscheduleSample sample;
        const MachineSchedule &schedule = schedules_[i];
        for (int k = 0; k < schedule.numCores(); ++k) {
            const auto &tuples = schedule.coreSchedule(k).tuples();
            sample.tuples.insert(sample.tuples.end(), tuples.begin(),
                                 tuples.end());
        }
        sample.ws = profiles[i].sampleWs;
        samples.push_back(std::move(sample));
    }
    return samples;
}

void
MachineExperiment::publishStats(const stats::Group &group) const
{
    group.info("label", "machine experiment label") = spec_.label;
    kernel_.publishStats(group);

    if (statsMachine_) {
        // The acceptance-visible per-core groups: machine.l2.*,
        // machine.core<k>.{l1i,l1d,itlb,dtlb,prefetch,l2_contention},
        // plus each core's best-run pipeline counters.
        const stats::Group machine = group.group("machine");
        machine.info("best_schedule",
                     "machine schedule replayed for these counters") =
            schedules_[static_cast<std::size_t>(bestIndex_)].label();
        statsMachine_->registerStats(machine);
        for (std::size_t k = 0; k < bestRun_.perCore.size(); ++k) {
            bestRun_.perCore[k].registerStats(
                machine.group("core" + std::to_string(k))
                    .group("perf"));
        }
    }

    for (const PolicyResult &policy : policyResults_) {
        const stats::Group pg =
            group.group("policy").group(policy.policy);
        pg.info("allocation", "jobs-to-cores partition chosen") =
            policy.allocationLabel;
        pg.value("best_ws", "best symbios WS under the allocation") =
            policy.bestWs;
        pg.value("avg_ws", "mean symbios WS under the allocation") =
            policy.avgWs;
        pg.value("schedules_run",
                 "per-core schedule combinations measured") =
            static_cast<double>(policy.schedulesRun);
    }
}

void
MachineExperiment::recordTrace(stats::EventTrace &trace) const
{
    const std::vector<ScheduleProfile> &profiles = kernel_.profiles();
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        trace.event("machine_sample_candidate")
            .field("experiment", spec_.label)
            .field("index", static_cast<std::uint64_t>(i))
            .field("schedule", profiles[i].label)
            .field("sample_ws", profiles[i].sampleWs)
            .field("ipc", profiles[i].counters.ipc());
    }
    kernel_.recordSymbios(trace, spec_.label, "machine_predictor_vote",
                          "machine_symbios_result");
    for (const PolicyResult &policy : policyResults_) {
        trace.event("allocation_policy")
            .field("experiment", spec_.label)
            .field("policy", policy.policy)
            .field("allocation", policy.allocationLabel)
            .field("best_ws", policy.bestWs)
            .field("avg_ws", policy.avgWs);
    }
}

} // namespace sos
