#include "batch_experiment.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"
#include "model/model.hh"
#include "sos/model_screen.hh"
#include "stats/stats.hh"
#include "stats/trace.hh"

namespace sos {

namespace {

/**
 * The neutral warmup schedule: cycle every job through the machine
 * once so no candidate is charged for compulsory cache and predictor
 * misses. (The paper's 5 M-cycle timeslices amortize cold start; our
 * scaled ones need this.)
 */
Schedule
warmupSchedule(const ExperimentSpec &spec)
{
    std::vector<int> order(static_cast<std::size_t>(spec.numUnits()));
    for (std::size_t u = 0; u < order.size(); ++u)
        order[u] = static_cast<int>(u);
    return spec.numUnits() == spec.level
               ? Schedule::fromPartition({order})
               : Schedule::fromRotation(order, spec.level, spec.swap);
}

} // namespace

BatchExperiment::BatchExperiment(const ExperimentSpec &spec,
                                 const SimConfig &config)
    : spec_(spec), config_(config),
      mix_(spec.makeMix(config.seed ^ hashLabel(spec.label))),
      runner_(config.jobs)
{
    Calibrator calibrator(config_.coreFor(spec_.level), config_.mem,
                          config_.calibWarmupCycles,
                          config_.calibMeasureCycles);
    calibrator.setSampling(config_.sample);
    calibrator.calibrate(mix_, config_.jobs);
}

std::uint64_t
BatchExperiment::timesliceCycles() const
{
    return spec_.little ? config_.littleTimesliceCycles()
                        : config_.timesliceCycles();
}

ParallelScheduleRunner::SweepSpec
BatchExperiment::sweep() const
{
    ParallelScheduleRunner::SweepSpec recipe;
    // Every task rebuilds the same mix from the same seed, so all
    // candidates see identical workload streams; the prototype's
    // calibration is copied instead of re-measured.
    recipe.makeMix = [this](std::size_t) {
        JobMix mix =
            spec_.makeMix(config_.seed ^ hashLabel(spec_.label));
        for (int j = 0; j < mix.numJobs(); ++j)
            mix.job(j).soloIpc = mix_.job(j).soloIpc;
        return mix;
    };
    // The paper's SMT core: a 1-core machine at this experiment's
    // level (never machineFor(), which describes a configured CMP).
    recipe.machine.core = config_.coreFor(spec_.level);
    recipe.machine.mem = config_.mem;
    recipe.timesliceCycles = timesliceCycles();
    const MachineSchedule warm(warmupSchedule(spec_));
    recipe.warmup = [warm](std::size_t) { return warm; };
    recipe.useSnapshot = config_.snapshot;
    recipe.sample = config_.sample;
    return recipe;
}

std::vector<ParallelScheduleRunner::ScheduleRun>
BatchExperiment::runCandidates(
    const std::vector<Schedule> &schedules,
    const std::function<std::uint64_t(std::size_t)> &timeslices)
{
    ParallelScheduleRunner::SweepSpec recipe = sweep();
    recipe.snapshots = &warmed_;
    return runner_.runAll(
        recipe, std::vector<MachineSchedule>(schedules.begin(),
                                             schedules.end()),
        timeslices);
}

std::vector<model::ThreadSignature>
BatchExperiment::unitSignatures() const
{
    std::vector<model::ThreadSignature> signatures;
    for (int u = 0; u < mix_.numUnits(); ++u) {
        const Job *job = mix_.unit(u).job;
        SOS_ASSERT(job != nullptr);
        signatures.push_back(model::makeThreadSignature(
            static_cast<int>(job->id()), job->profile(), job->soloIpc));
    }
    return signatures;
}

std::vector<model::FeatureVector>
BatchExperiment::candidateFeatures() const
{
    SOS_ASSERT(!schedules_.empty(), "run the sample phase first");
    const std::vector<model::ThreadSignature> signatures =
        unitSignatures();
    std::vector<model::FeatureVector> features;
    features.reserve(schedules_.size());
    for (const Schedule &schedule : schedules_)
        features.push_back(model::composeScheduleFeatures(
            signatures, schedule.tuples()));
    return features;
}

void
BatchExperiment::runScreenedSamplePhase(std::uint64_t periods)
{
    std::shared_ptr<const model::WsModel> ws_model;
    try {
        ws_model = model::loadModel(config_.modelPath);
    } catch (const model::ModelError &error) {
        fatal("samplek screen: ", error.what());
    }

    const std::vector<model::FeatureVector> features =
        candidateFeatures();
    std::vector<double> predicted(features.size());
    std::vector<bool> uncertain(features.size());
    for (std::size_t i = 0; i < features.size(); ++i) {
        predicted[i] = ws_model->predict(features[i]);
        uncertain[i] = ws_model->uncertainty(features[i]) >
                       ws_model->uncertaintyThreshold();
    }
    const std::vector<std::size_t> shortlist = samplekShortlist(
        predicted, std::move(uncertain), config_.samplek);
    std::vector<Schedule> shortlisted;
    for (std::size_t i : shortlist)
        shortlisted.push_back(schedules_[i]);

    // Synthetic profiles for the screened-out candidates: the model's
    // prediction stands in for the sample-phase WS, and no counters
    // exist (predictors never score these; see
    // SosKernel::predictedIndex).
    std::vector<ScheduleProfile> synthetic(schedules_.size());
    for (std::size_t i = 0; i < schedules_.size(); ++i) {
        synthetic[i].label = schedules_[i].label();
        synthetic[i].sampleWs = predicted[i];
        synthetic[i].detailed = false;
    }

    kernel_.runSamplePhaseScreened(
        runCandidates(shortlisted,
                      [&](std::size_t i) {
                          return shortlisted[i].periodTimeslices() *
                                 periods;
                      }),
        shortlist, std::move(synthetic));
}

void
BatchExperiment::runSamplePhase()
{
    Rng rng(config_.seed ^ hashLabel(spec_.label) ^ 0x5a3217e1ULL);

    const ScheduleSpace space(spec_.numUnits(), spec_.level, spec_.swap);
    schedules_ = space.sample(config_.sampleSchedules, rng);

    const auto periods =
        static_cast<std::uint64_t>(std::max(1, config_.samplePeriods));

    if (config_.samplek > 0 && !config_.modelPath.empty()) {
        runScreenedSamplePhase(periods);
        return;
    }

    std::vector<std::string> labels;
    for (const Schedule &schedule : schedules_)
        labels.push_back(schedule.label());
    kernel_.runSamplePhase(
        runCandidates(schedules_,
                      [&](std::size_t i) {
                          return schedules_[i].periodTimeslices() *
                                 periods;
                      }),
        labels);
}

void
BatchExperiment::runSymbiosValidation(std::uint64_t symbios_cycles)
{
    const std::uint64_t cycles =
        symbios_cycles > 0 ? symbios_cycles : config_.symbiosCycles();
    const std::uint64_t timeslices =
        std::max<std::uint64_t>(1, cycles / timesliceCycles());

    kernel_.runSymbiosValidation(runCandidates(
        schedules_, [timeslices](std::size_t) { return timeslices; }));
    // The last phase that forks the warm state; a finished experiment
    // (harnesses keep them for their stats dumps) holds no snapshot.
    warmed_.clear();
}

void
BatchExperiment::publishStats(const stats::Group &group) const
{
    group.info("label", "experiment label") = spec_.label;
    kernel_.publishStats(group);
}

void
BatchExperiment::recordTrace(stats::EventTrace &trace) const
{
    const std::vector<ScheduleProfile> &profiles = kernel_.profiles();
    // Candidate features ride along so sostrain can join them against
    // the symbios_result labels without re-deriving the mix.
    const std::vector<model::FeatureVector> features =
        candidateFeatures();
    const std::vector<std::string> &names = model::featureNames();
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        auto event =
            trace.event("sample_candidate")
                .field("experiment", spec_.label)
                .field("index", static_cast<std::uint64_t>(i))
                .field("schedule", profiles[i].label)
                .field("sample_ws", profiles[i].sampleWs)
                .field("ipc", profiles[i].counters.ipc())
                .field("features_version",
                       static_cast<std::uint64_t>(
                           model::kFeatureSchemaVersion));
        for (std::size_t f = 0; f < names.size(); ++f)
            event.field("feat_" + names[f], features[i][f]);
    }
    kernel_.recordSymbios(trace, spec_.label, "predictor_vote",
                          "symbios_result");
}

} // namespace sos
