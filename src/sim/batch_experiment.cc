#include "batch_experiment.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"
#include "cpu/sampling.hh"
#include "metrics/calibrator.hh"
#include "model/model.hh"
#include "sos/model_screen.hh"
#include "stats/stats.hh"
#include "stats/trace.hh"

namespace sos {

namespace {

/**
 * The machine a spec runs on. The paper's SMT core is a 1-core
 * machine at the experiment's level (never machineFor(), which
 * describes a configured CMP).
 */
MachineParams
machineOf(const ExperimentSpec &spec, const SimConfig &config)
{
    if (spec.numCores > 1)
        return config.machineFor(spec.level, spec.numCores);
    MachineParams params;
    params.core = config.coreFor(spec.level);
    params.mem = config.mem;
    return params;
}

/** The mix every task of @p spec rebuilds (same seed, same streams). */
JobMix
mixOf(const ExperimentSpec &spec, const SimConfig &config)
{
    return spec.makeMix(config.seed ^ hashLabel(spec.label));
}

/**
 * One calibrator per core class of @p machine. Solo IPC is a property
 * of one job alone on one core; core 0's configuration is the
 * machine's reference class (on a homogeneous machine the only one).
 * Classes are numbered in order of first appearance (class 0 holds
 * core 0), so the first core of each class gets the calibrator.
 */
std::vector<Calibrator>
classCalibrators(const MachineParams &machine, const SimConfig &config,
                 SoloIpcTable &table)
{
    const std::vector<int> classes = machine.coreClasses();
    std::vector<Calibrator> calibrators;
    for (int k = 0; k < machine.numCores; ++k) {
        if (classes[static_cast<std::size_t>(k)] !=
            static_cast<int>(calibrators.size()))
            continue;
        calibrators.emplace_back(machine.coreParams(k),
                                 machine.memParams(k),
                                 config.calibWarmupCycles,
                                 config.calibMeasureCycles, table);
        calibrators.back().setSampling(config.sample);
    }
    return calibrators;
}

/** Every job of @p mix on every calibrator, calibrator-major. */
void
appendRequests(std::vector<Calibrator> &calibrators, const JobMix &mix,
               std::vector<Calibrator::Request> &requests)
{
    for (Calibrator &calibrator : calibrators) {
        for (int j = 0; j < mix.numJobs(); ++j)
            requests.push_back(
                {&calibrator,
                 {mix.job(j).name(), mix.job(j).numThreads()}});
    }
}

} // namespace

BatchExperiment::BatchExperiment(const ExperimentSpec &spec,
                                 const SimConfig &config)
    : BatchExperiment(spec, config, nullptr, SoloIpcTable::shared())
{
}

BatchExperiment::BatchExperiment(const ExperimentSpec &spec,
                                 const SimConfig &config, ThreadPool &pool,
                                 SoloIpcTable &table)
    : BatchExperiment(spec, config, &pool, table)
{
}

BatchExperiment::BatchExperiment(const ExperimentSpec &spec,
                                 const SimConfig &config, ThreadPool *pool,
                                 SoloIpcTable &table)
    : spec_(spec), config_(config),
      machineParams_(machineOf(spec, config)),
      space_(spec.numUnits(), spec.numCores, spec.level, spec.swap,
             machineParams_.coreClasses()),
      mix_(mixOf(spec, config)),
      runner_(pool != nullptr ? ParallelScheduleRunner(*pool)
                              : ParallelScheduleRunner(config.jobs))
{
    if (spec_.numCores > 1) {
        for (const ExperimentSpec::Entry &entry : spec_.entries)
            SOS_ASSERT(entry.threads == 1,
                       "multicore experiments take single-threaded jobs");
    }
    if (space_.heterogeneous())
        coreClasses_ = space_.coreClasses();

    // Heterogeneity-aware policies need every job's solo IPC on every
    // core class; all of them are measured in one batch.
    std::vector<Calibrator> calibrators =
        classCalibrators(machineParams_, config_, table);
    std::vector<Calibrator::Request> requests;
    appendRequests(calibrators, mix_, requests);
    const std::vector<double> references =
        Calibrator::measure(requests, runner_.pool());

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
BatchExperiment::timesliceCycles() const
{
    return spec_.little ? config_.littleTimesliceCycles()
                        : config_.timesliceCycles();
}

std::uint64_t
BatchExperiment::symbiosTimeslices(std::uint64_t symbios_cycles) const
{
    const std::uint64_t cycles =
        symbios_cycles > 0 ? symbios_cycles : config_.symbiosCycles();
    return std::max<std::uint64_t>(1, cycles / timesliceCycles());
}

JobMix
BatchExperiment::freshMix() const
{
    // Every task rebuilds the same mix from the same seed, so all
    // candidates see identical workload streams; the prototype's
    // calibration is copied instead of re-measured.
    JobMix mix = mixOf(spec_, config_);
    for (int j = 0; j < mix.numJobs(); ++j)
        mix.job(j).soloIpc = mix_.job(j).soloIpc;
    return mix;
}

MachineSchedule
BatchExperiment::warmupFor(const Partition &allocation) const
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
BatchExperiment::sweep(const std::vector<MachineSchedule> &schedules) const
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
    recipe.sample = config_.sample;
    return recipe;
}

std::vector<model::FeatureVector>
BatchExperiment::candidateFeatures() const
{
    SOS_ASSERT(spec_.numCores == 1,
               "candidate features describe one SMT core");
    SOS_ASSERT(!schedules_.empty(), "run the sample phase first");
    // Static per-unit signatures of the calibrated mix.
    std::vector<model::ThreadSignature> signatures;
    for (int u = 0; u < mix_.numUnits(); ++u) {
        const Job *job = mix_.unit(u).job;
        SOS_ASSERT(job != nullptr);
        signatures.push_back(model::makeThreadSignature(
            static_cast<int>(job->id()), job->profile(), job->soloIpc));
    }
    std::vector<model::FeatureVector> features;
    features.reserve(schedules_.size());
    for (const MachineSchedule &schedule : schedules_)
        features.push_back(model::composeScheduleFeatures(
            signatures, schedule.coreSchedule(0).tuples()));
    return features;
}

std::vector<std::size_t>
BatchExperiment::screenCandidates(
    std::vector<ScheduleProfile> &synthetic) const
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

    // Synthetic profiles for the screened-out candidates: the model's
    // prediction stands in for the sample-phase WS, and no counters
    // exist (predictors never score these; see
    // SosKernel::predictedIndex).
    synthetic.assign(schedules_.size(), ScheduleProfile{});
    for (std::size_t i = 0; i < schedules_.size(); ++i) {
        synthetic[i].label = schedules_[i].label();
        synthetic[i].sampleWs = predicted[i];
        synthetic[i].detailed = false;
    }
    return samplekShortlist(predicted, std::move(uncertain),
                            config_.samplek);
}

void
BatchExperiment::runSamplePhase()
{
    Rng rng(config_.seed ^ hashLabel(spec_.label) ^ 0x5a3217e1ULL);
    schedules_ = space_.sample(config_.sampleSchedules, rng);

    const auto periods = static_cast<std::uint64_t>(config_.samplePeriods);
    const std::uint64_t symbios = symbiosTimeslices();

    // The candidates the sample phase profiles: every one, or the
    // samplek shortlist (ascending) with synthetic profiles for the
    // rest.
    const bool screened = spec_.numCores == 1 && config_.samplek > 0 &&
                          !config_.modelPath.empty();
    std::vector<ScheduleProfile> synthetic;
    std::vector<bool> sampled(schedules_.size(), !screened);
    std::vector<std::size_t> shortlist;
    if (screened) {
        shortlist = screenCandidates(synthetic);
        for (std::size_t i : shortlist)
            sampled[i] = true;
    }

    // One pass per candidate: a sampled candidate is read at its
    // sample length and at the symbios length, a screened-out one at
    // the symbios length only. Both phases start from the same warm
    // state at timeslice 0, so each length is an exact prefix of the
    // longer run (MachineEngine::runSchedule).
    auto runs =
        runner_.runAll(sweep(schedules_), schedules_, [&](std::size_t i) {
            std::vector<std::uint64_t> lengths;
            if (sampled[i])
                lengths.push_back(schedules_[i].periodTimeslices() *
                                  periods);
            lengths.push_back(symbios);
            return lengths;
        });

    std::vector<ParallelScheduleRunner::ScheduleRun> sample_runs;
    std::vector<std::string> labels;
    symbiosRuns_.clear();
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (sampled[i]) {
            sample_runs.push_back(std::move(runs[i].front()));
            labels.push_back(schedules_[i].label());
        }
        symbiosRuns_.push_back(std::move(runs[i].back()));
    }
    if (screened) {
        kernel_.runSamplePhaseScreened(sample_runs, shortlist,
                                       std::move(synthetic));
    } else {
        kernel_.runSamplePhase(sample_runs, labels);
    }
}

void
BatchExperiment::runSymbiosValidation()
{
    // The sample phase already ran every candidate to the symbios
    // length; this phase only reads those runs.
    kernel_.runSymbiosValidation(symbiosRuns_);
    symbiosRuns_ = {};
    if (spec_.numCores > 1)
        replayBest(symbiosTimeslices());
}

void
BatchExperiment::replayBest(std::uint64_t timeslices)
{
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
    engine.runSchedule(mix, warm, {warm.periodTimeslices()});
    bestRun_ = std::move(engine.runSchedule(mix, best, {timeslices}).front());
    recordSampling(bestRun_.sampling);
    engine.evictAll();
}

const BatchExperiment::PolicyResult &
BatchExperiment::evaluatePolicy(const std::string &name,
                                std::uint64_t symbios_cycles)
{
    SOS_ASSERT(!kernel_.profiles().empty(),
               "run the sample phase first");
    const std::unique_ptr<ThreadToCorePolicy> policy =
        makeThreadToCorePolicy(name);

    AllocationContext ctx;
    ctx.numJobs = spec_.numUnits();
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
    const std::uint64_t timeslices = symbiosTimeslices(symbios_cycles);
    const auto runs = runner_.runAll(
        sweep(schedules), schedules,
        [timeslices](std::size_t) { return std::vector{timeslices}; });

    double total = 0.0;
    double best = 0.0;
    for (const auto &run : runs) {
        total += run.front().ws;
        best = std::max(best, run.front().ws);
        recordSampling(run.front().run.sampling);
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
BatchExperiment::coscheduleSamples() const
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
BatchExperiment::publishStats(const stats::Group &group) const
{
    group.info("label", "experiment label") = spec_.label;
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
BatchExperiment::recordTrace(stats::EventTrace &trace) const
{
    const std::vector<ScheduleProfile> &profiles = kernel_.profiles();
    const bool cmp = spec_.numCores > 1;
    // Candidate features ride along so sostrain can join them against
    // the symbios_result labels without re-deriving the mix.
    const std::vector<model::FeatureVector> features =
        cmp ? std::vector<model::FeatureVector>{} : candidateFeatures();
    const std::vector<std::string> &names = model::featureNames();
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        auto event =
            trace.event(cmp ? "machine_sample_candidate"
                            : "sample_candidate")
                .field("experiment", spec_.label)
                .field("index", static_cast<std::uint64_t>(i))
                .field("schedule", profiles[i].label)
                .field("sample_ws", profiles[i].sampleWs)
                .field("ipc", profiles[i].counters.ipc());
        if (cmp)
            continue;
        event.field("features_version", static_cast<std::uint64_t>(
                                            model::kFeatureSchemaVersion));
        for (std::size_t f = 0; f < names.size(); ++f)
            event.field("feat_" + names[f], features[i][f]);
    }
    kernel_.recordSymbios(
        trace, spec_.label,
        cmp ? "machine_predictor_vote" : "predictor_vote",
        cmp ? "machine_symbios_result" : "symbios_result");
    for (const PolicyResult &policy : policyResults_) {
        trace.event("allocation_policy")
            .field("experiment", spec_.label)
            .field("policy", policy.policy)
            .field("allocation", policy.allocationLabel)
            .field("best_ws", policy.bestWs)
            .field("avg_ws", policy.avgWs);
    }
}

std::vector<std::unique_ptr<BatchExperiment>>
runExperiments(const std::vector<ExperimentSpec> &specs,
               const SimConfig &config, ThreadPool &pool,
               SoloIpcTable &table)
{
    // Every spec's solo references in one batch, ahead of the
    // experiments: two constructors running at once would otherwise
    // both measure a key they share. The constructors then find every
    // key in the table.
    std::vector<std::vector<Calibrator>> calibrators;
    calibrators.reserve(specs.size());
    std::vector<Calibrator::Request> requests;
    for (const ExperimentSpec &spec : specs) {
        calibrators.push_back(
            classCalibrators(machineOf(spec, config), config, table));
        appendRequests(calibrators.back(), mixOf(spec, config), requests);
    }
    Calibrator::measure(requests, pool);

    // One task per experiment, claimed in spec order. A thread holds
    // at most one experiment (its sweeps are nested batches it only
    // helps), so no more than pool.workers() warm snapshots are ever
    // alive; idle workers join the in-flight experiments' sweeps.
    std::vector<std::unique_ptr<BatchExperiment>> experiments(
        specs.size());
    pool.run(specs.size(), [&](std::size_t i) {
        auto experiment =
            std::make_unique<BatchExperiment>(specs[i], config, pool, table);
        experiment->runSamplePhase();
        experiment->runSymbiosValidation();
        experiments[i] = std::move(experiment);
    });
    return experiments;
}

} // namespace sos
