#include "hierarchical_experiment.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"
#include "metrics/calibrator.hh"
#include "stats/stats.hh"
#include "stats/trace.hh"

namespace sos {

HierarchicalExperiment::HierarchicalExperiment(
    const HierarchicalSpec &spec, const SimConfig &config,
    int max_candidates)
    : spec_(spec), config_(config), runner_(config.jobs)
{
    SOS_ASSERT(max_candidates >= 1);

    JobMix prototype = spec.makeMix(config.seed ^ 0x41e7a11cULL);
    std::vector<bool> adaptive;
    adaptive.reserve(static_cast<std::size_t>(prototype.numJobs()));
    for (int j = 0; j < prototype.numJobs(); ++j)
        adaptive.push_back(prototype.job(j).adaptive());

    const std::vector<AllocationPlan> plans = enumerateAllocationPlans(
        adaptive, spec.level, /*max_threads_per_job=*/spec.level);

    const int per_plan = std::max(
        1, max_candidates / static_cast<int>(plans.size()));
    Rng rng(config.seed ^ 0x1e8a12c1ULL);

    for (const AllocationPlan &plan : plans) {
        const ScheduleSpace space(plan.totalUnits(), spec.level,
                                  spec.level);
        for (Schedule &schedule : space.sample(per_plan, rng)) {
            HierarchicalCandidate candidate;
            candidate.plan = plan;
            candidate.schedule = std::move(schedule);
            candidates_.push_back(std::move(candidate));
        }
    }
    SOS_ASSERT(!candidates_.empty());

    // Measure every solo-IPC reference the plans can ask for now, as
    // one batch from this thread; the sweep tasks then only read the
    // table.
    Calibrator calibrator(config_.coreFor(spec_.level), config_.mem,
                          config_.calibWarmupCycles,
                          config_.calibMeasureCycles);
    calibrator.setSampling(config_.sample);
    std::vector<SoloKey> keys;
    for (const AllocationPlan &plan : plans) {
        for (int j = 0; j < prototype.numJobs(); ++j)
            keys.push_back(
                {prototype.job(j).name(),
                 plan.threadsPerJob[static_cast<std::size_t>(j)]});
    }
    const std::vector<double> references =
        calibrator.soloIpcs(keys, runner_.pool());
    for (std::size_t k = 0; k < keys.size(); ++k)
        soloIpc_[{keys[k].workload, keys[k].threads}] = references[k];
}

JobMix
HierarchicalExperiment::mixForPlan(const AllocationPlan &plan) const
{
    JobMix mix = spec_.makeMix(config_.seed ^ 0x41e7a11cULL);
    for (int j = 0; j < mix.numJobs(); ++j) {
        Job &job = mix.job(j);
        const int threads =
            plan.threadsPerJob[static_cast<std::size_t>(j)];
        if (job.adaptive() && job.numThreads() != threads)
            job.setThreadCount(threads);
        SOS_ASSERT(job.adaptive() || threads == 1);
        const auto ref = soloIpc_.find({job.name(), threads});
        SOS_ASSERT(ref != soloIpc_.end(),
                   "plan asks for an uncalibrated thread count");
        job.soloIpc = ref->second;
    }
    return mix;
}

ParallelScheduleRunner::SweepSpec
HierarchicalExperiment::sweep() const
{
    ParallelScheduleRunner::SweepSpec recipe;
    recipe.makeMix = [this](std::size_t index) {
        return mixForPlan(candidates_[index].plan);
    };
    recipe.machine.core = config_.coreFor(spec_.level);
    recipe.machine.mem = config_.mem;
    recipe.timesliceCycles = config_.timesliceCycles();
    // No warm-up: every candidate starts equally cold, and the sample
    // phase already runs several periods per candidate.
    recipe.sample = config_.sample;
    return recipe;
}

void
HierarchicalExperiment::run(std::uint64_t symbios_cycles)
{
    const std::uint64_t symbios =
        symbios_cycles > 0 ? symbios_cycles
                           : config_.symbiosCycles() / 4;

    const ParallelScheduleRunner::SweepSpec recipe = sweep();
    std::vector<MachineSchedule> schedules;
    std::vector<std::string> labels;
    for (const HierarchicalCandidate &candidate : candidates_) {
        schedules.emplace_back(candidate.schedule);
        labels.push_back(candidate.plan.label() + " " +
                         candidate.schedule.label());
    }

    // One pass per candidate, read at two lengths: the sample phase
    // (a few periods, see samplePeriods) and the symbios validation
    // (what the candidate would have delivered). A run only sums
    // per-slice results, so each length is an exact prefix.
    const auto periods =
        static_cast<std::uint64_t>(std::max(1, config_.samplePeriods));
    const std::uint64_t timeslice = config_.timesliceCycles();
    auto runs = runner_.runAll(recipe, schedules, [&](std::size_t i) {
        const std::uint64_t period = schedules[i].periodTimeslices();
        return std::vector<std::uint64_t>{
            period * periods,
            std::max<std::uint64_t>(period, symbios / timeslice)};
    });
    std::vector<ParallelScheduleRunner::ScheduleRun> sample_runs;
    std::vector<ParallelScheduleRunner::ScheduleRun> symbios_runs;
    for (auto &run : runs) {
        sample_runs.push_back(std::move(run[0]));
        symbios_runs.push_back(std::move(run[1]));
    }
    kernel_.runSamplePhase(sample_runs, labels);
    kernel_.runSymbiosValidation(symbios_runs);

    // Copy the kernel's results back onto the candidate structs the
    // public API (and Figure 4 reporting) exposes.
    for (std::size_t i = 0; i < candidates_.size(); ++i) {
        candidates_[i].profile = kernel_.profiles()[i];
        candidates_[i].symbiosWs = kernel_.symbiosWs()[i];
    }
}

double
HierarchicalExperiment::improvementOverAveragePct() const
{
    return 100.0 * (scoreWs() - averageWs()) / averageWs();
}

double
HierarchicalExperiment::improvementOverWorstPct() const
{
    return 100.0 * (scoreWs() - worstWs()) / worstWs();
}

void
HierarchicalExperiment::publishStats(const stats::Group &group) const
{
    group.info("label", "hierarchical mix label") = spec_.label;

    for (std::size_t i = 0; i < candidates_.size(); ++i) {
        const HierarchicalCandidate &candidate = candidates_[i];
        const stats::Group cand =
            group.group("candidate" + std::to_string(i));
        cand.info("allocation", "threads granted per job") =
            candidate.plan.label();
        cand.info("schedule", "candidate schedule label") =
            candidate.schedule.label();
        cand.value("sample_ws", "WS observed during the sample phase") =
            candidate.profile.sampleWs;
        cand.value("ws", "symbios-phase weighted speedup") =
            candidate.symbiosWs;
        candidate.profile.counters.registerStats(
            cand.group("counters"));
    }

    const stats::Group summary = group.group("summary");
    summary.value("best_ws", "best symbios WS in the sample") =
        bestWs();
    summary.value("worst_ws", "worst symbios WS in the sample") =
        worstWs();
    summary.value("avg_ws",
                  "oblivious-scheduler expectation over the sample") =
        averageWs();
    summary.scalar("score_pick", "candidate index Score selects") =
        static_cast<std::uint64_t>(scoreBestIndex());
    summary.value("score_ws", "symbios WS of the Score pick") =
        scoreWs();
    summary.value("improvement_over_avg_pct",
                  "Figure 4 bar: Score vs average") =
        improvementOverAveragePct();
    summary.value("improvement_over_worst_pct",
                  "Figure 4 bar: Score vs worst") =
        improvementOverWorstPct();
}

void
HierarchicalExperiment::recordTrace(stats::EventTrace &trace) const
{
    for (std::size_t i = 0; i < candidates_.size(); ++i) {
        const HierarchicalCandidate &candidate = candidates_[i];
        trace.event("sample_candidate")
            .field("experiment", spec_.label)
            .field("index", static_cast<std::uint64_t>(i))
            .field("allocation", candidate.plan.label())
            .field("schedule", candidate.schedule.label())
            .field("sample_ws", candidate.profile.sampleWs);
    }
    const int pick = scoreBestIndex();
    trace.event("symbios_pick")
        .field("experiment", spec_.label)
        .field("predictor", "Score")
        .field("pick", pick)
        .field("allocation",
               candidates_[static_cast<std::size_t>(pick)].plan.label())
        .field("schedule", candidates_[static_cast<std::size_t>(pick)]
                               .schedule.label())
        .field("ws", scoreWs());
    for (std::size_t i = 0; i < candidates_.size(); ++i) {
        trace.event("symbios_result")
            .field("experiment", spec_.label)
            .field("index", static_cast<std::uint64_t>(i))
            .field("ws", candidates_[i].symbiosWs);
    }
}

} // namespace sos
