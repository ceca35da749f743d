#include "open_system.hh"

#include <algorithm>
#include <memory>
#include <span>
#include <string>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "cpu/machine.hh"
#include "cpu/sampling.hh"
#include "metrics/calibrator.hh"
#include "metrics/weighted_speedup.hh"
#include "sim/experiment_defs.hh"
#include "sim/machine_engine.hh"
#include "sos/model_screen.hh"
#include "sos/open_backend.hh"
#include "trace/workload_library.hh"

namespace sos {

CoRunGroups
simulateCoRunGroups(const CapacityProbe &probe)
{
    const SimConfig &sim = *probe.sim;
    const int level = probe.level;
    const std::vector<std::string> &workloads = openSystemWorkloads();
    Machine machine(sim.referenceCoreFor(level), sim.referenceMem());
    MachineEngine engine(machine, sim.timesliceCycles());
    std::vector<std::unique_ptr<Job>> jobs;
    jobs.reserve(workloads.size());
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const WorkloadProfile &profile =
            WorkloadLibrary::instance().get(workloads[w]);
        jobs.push_back(std::make_unique<Job>(
            static_cast<std::uint32_t>(w + 1), profile,
            0xcafac17eULL ^ mix64(w + 11), 1, false));
    }

    // The steady-state open system mostly runs a resident coschedule
    // of `level` jobs for many consecutive timeslices, so capacity is
    // the warm co-run WS of such groups, averaged over the population
    // (a whole-population rotation would charge every slice a cold
    // restart the real system doesn't pay).
    const int n = static_cast<int>(jobs.size());
    const auto groups =
        static_cast<std::uint64_t>((n + level - 1) / level);
    // Warm and measure over the same intervals the solo references
    // used, so the co-run IPC is compared like for like.
    const std::uint64_t timeslice = sim.timesliceCycles();
    const std::uint64_t warm_slices = std::max<std::uint64_t>(
        1, sim.calibWarmupCycles / timeslice);
    const std::uint64_t measure_slices = std::max<std::uint64_t>(
        1, sim.calibMeasureCycles / timeslice);
    CoRunGroups run;
    run.measuredCycles = measure_slices * timeslice;
    for (std::uint64_t g = 0; g < groups; ++g) {
        std::vector<std::vector<ThreadRef>> units(1);
        std::vector<CoRunGroups::Member> members;
        for (int k = 0; k < level; ++k) {
            const std::size_t j =
                (g * static_cast<std::uint64_t>(level) +
                 static_cast<std::uint64_t>(k)) %
                jobs.size();
            members.push_back({j, 0});
            units[0].push_back(ThreadRef{jobs[j].get(), 0});
        }
        for (std::uint64_t s = 0; s < warm_slices; ++s)
            recordSampling(engine.runSlice(units).sampling);
        for (CoRunGroups::Member &member : members)
            member.retired = jobs[member.workload]->retired();
        for (std::uint64_t s = 0; s < measure_slices; ++s)
            recordSampling(engine.runSlice(units).sampling);
        for (CoRunGroups::Member &member : members)
            member.retired = jobs[member.workload]->retired() - member.retired;
        run.groups.push_back(std::move(members));
    }
    return run;
}

double
scoreCoRun(const CoRunGroups &run, std::span<const double> solo)
{
    double ws_total = 0.0;
    for (const std::vector<CoRunGroups::Member> &group : run.groups) {
        std::vector<JobProgress> progress;
        for (const CoRunGroups::Member &member : group)
            progress.push_back(
                JobProgress{member.retired, solo[member.workload]});
        ws_total += weightedSpeedup(progress, run.measuredCycles);
    }
    return std::max(0.1,
                    ws_total / static_cast<double>(run.groups.size()));
}

std::vector<double>
measuredCapacities(const std::vector<CapacityProbe> &probes,
                   ThreadPool &pool)
{
    const std::vector<SoloKey> keys = soloKeys(openSystemWorkloads());
    // Every probe's solo references as one batch: probes resolved
    // one at a time, or as concurrent batches, would each measure the
    // references they share.
    std::vector<Calibrator> calibrators;
    calibrators.reserve(probes.size());
    std::vector<Calibrator::Request> requests;
    for (const CapacityProbe &probe : probes) {
        calibrators.emplace_back(probe.sim->referenceCoreFor(probe.level),
                                 probe.sim->referenceMem(),
                                 probe.sim->calibWarmupCycles,
                                 probe.sim->calibMeasureCycles);
        for (const SoloKey &key : keys)
            requests.push_back({&calibrators.back(), key});
    }

    // The co-runs read no reference, so both halves share one batch:
    // a task per probe runs its co-run groups (the critical path, so
    // they take the first indices), and the last task measures the
    // references as a nested batch on the workers left idle.
    std::vector<CoRunGroups> runs(probes.size());
    std::vector<double> solo;
    pool.run(probes.size() + 1, [&](std::size_t i) {
        if (i < probes.size())
            runs[i] = simulateCoRunGroups(probes[i]);
        else
            solo = Calibrator::measure(requests, pool);
    });

    std::vector<double> capacities;
    capacities.reserve(probes.size());
    for (std::size_t p = 0; p < probes.size(); ++p) {
        capacities.push_back(scoreCoRun(
            runs[p], std::span<const double>(solo).subspan(
                         p * keys.size(), keys.size())));
    }
    return capacities;
}

double
measuredCapacity(const SimConfig &sim, int level, ThreadPool &pool)
{
    return measuredCapacities({{&sim, level}}, pool).front();
}

std::uint64_t
OpenSystemConfig::effectiveInterarrivalPaper(const SimConfig &sim,
                                             ThreadPool &pool) const
{
    if (meanInterarrivalPaper > 0)
        return meanInterarrivalPaper;
    return stableInterarrivalPaper(measuredCapacity(sim, level, pool));
}

std::uint64_t
OpenSystemConfig::stableInterarrivalPaper(double core_capacity) const
{
    // High but sub-saturation load: the paper sizes lambda so the
    // queue holds about 2 x capacity jobs. Whole-machine capacity is
    // the per-core capacity times the core count.
    const double rate = 0.85 * (core_capacity *
                                static_cast<double>(std::max(1, numCores)));
    return static_cast<std::uint64_t>(
        static_cast<double>(meanJobPaperCycles) / rate);
}

std::uint64_t
drawJobInstructions(Rng &rng, double mean_cycles, double solo_ipc)
{
    // Clamped so no job is shorter than a few timeslices or absurdly
    // long.
    const double duration = std::clamp(rng.exponential(mean_cycles),
                                       mean_cycles * 0.05,
                                       mean_cycles * 6.0);
    const double size = duration * solo_ipc;
    // The cast below is defined only under 2^64; NaN fails too.
    if (!(size < 0x1p64))
        fatal("a job of ", duration, " solo cycles at IPC ", solo_ipc,
              " does not fit in 64 bits of instructions; lower the "
              "class size factor or the mean job length");
    return std::max<std::uint64_t>(1000,
                                   static_cast<std::uint64_t>(size));
}

std::vector<JobArrival>
makeArrivalTrace(const SimConfig &sim, const OpenSystemConfig &config,
                 ThreadPool &pool)
{
    SOS_ASSERT(config.numJobs > 0);
    Rng rng(config.seed ^ 0x7ace7aceULL);
    Calibrator calibrator(sim.referenceCoreFor(config.level),
                          sim.referenceMem(), sim.calibWarmupCycles,
                          sim.calibMeasureCycles);

    const double interarrival = static_cast<double>(
        sim.scaled(config.effectiveInterarrivalPaper(sim, pool)));
    const double mean_cycles =
        static_cast<double>(sim.scaled(config.meanJobPaperCycles));
    const auto &workloads = openSystemWorkloads();
    const std::vector<double> solo =
        calibrator.soloIpcs(soloKeys(workloads), pool);

    std::vector<JobArrival> trace;
    trace.reserve(static_cast<std::size_t>(config.numJobs));
    double clock = 0.0;
    for (int j = 0; j < config.numJobs; ++j) {
        clock += rng.exponential(interarrival);
        JobArrival arrival;
        arrival.arrivalCycle = static_cast<std::uint64_t>(clock);
        const std::size_t w = rng.below(workloads.size());
        arrival.workload = workloads[w];
        arrival.sizeInstructions =
            drawJobInstructions(rng, mean_cycles, solo[w]);
        trace.push_back(std::move(arrival));
    }
    return trace;
}

std::unique_ptr<EngineBackend>
makeOpenBackend(const SimConfig &sim, int level, int num_cores)
{
    SOS_ASSERT(num_cores >= 1, "an open system needs at least one core");
    // Capacity calibration (measuredCapacities above) deliberately stays
    // full detail; only the live system and its candidate forks sample.
    return std::make_unique<EngineBackend>(
        sim.machineFor(level, num_cores),
        sim.timesliceCycles(), sim.sample);
}

OpenRunSetup
openRunSetup(const SimConfig &sim, const OpenSystemConfig &system,
             std::uint64_t base_interval_cycles, std::uint64_t seed,
             std::function<JobArrival(std::size_t)> arrival_at)
{
    OpenRunSetup setup;
    setup.config.sampleSchedules = system.sampleSchedules;
    setup.config.predictor = system.predictor;
    setup.config.modelPath = sim.modelPath;
    setup.config.resamplePolicy = system.resamplePolicy;
    setup.config.baseIntervalCycles = base_interval_cycles;
    setup.config.seed = seed ^ 0x5051d67eULL;

    auto calibrator = std::make_shared<Calibrator>(
        sim.referenceCoreFor(system.level), sim.referenceMem(),
        sim.calibWarmupCycles, sim.calibMeasureCycles);
    setup.makeJob = [calibrator, seed,
                     arrival_at = std::move(arrival_at)](
                        std::size_t index) {
        const JobArrival arrival = arrival_at(index);
        auto job = std::make_unique<Job>(
            static_cast<std::uint32_t>(index + 1),
            WorkloadLibrary::instance().get(arrival.workload),
            seed ^ mix64(index + 101), 1, false);
        job->arrivalCycle = arrival.arrivalCycle;
        job->sizeInstructions = arrival.sizeInstructions;
        job->soloIpc = calibrator->soloIpc(arrival.workload);
        return job;
    };
    return setup;
}

OpenSystemResult
runOpenSystem(const SimConfig &sim, const OpenSystemConfig &config,
              const std::vector<JobArrival> &trace, OpenPolicy policy,
              ThreadPool &pool, stats::EventTrace *events)
{
    SOS_ASSERT(!trace.empty());
    const std::unique_ptr<EngineBackend> backend =
        makeOpenBackend(sim, config.level, config.numCores);
    OpenRunSetup setup = openRunSetup(
        sim, config,
        sim.scaled(config.effectiveInterarrivalPaper(sim, pool)),
        config.seed, [&trace](std::size_t index) { return trace[index]; });
    if (sim.samplek > 0 && !sim.modelPath.empty())
        setup.config.screen =
            makeModelScreen(sim.modelPath, sim.samplek);

    // Inject the whole arrival trace up front and drain it in one step.
    OpenRun run(*backend, setup.config, policy, std::move(setup.makeJob),
                pool, events);
    for (std::size_t i = 0; i < trace.size(); ++i)
        run.inject(trace[i].arrivalCycle, static_cast<int>(i));
    run.advanceTo(OpenRun::kNoLimit);
    run.finalize();

    OpenSystemResult result;
    result.responseByArrival.assign(trace.size(), 0);
    for (const auto &[index, response] : run.responses())
        result.responseByArrival[static_cast<std::size_t>(index)] =
            response;
    result.completed = static_cast<int>(run.completed());
    double total_response = 0.0;
    for (std::uint64_t r : result.responseByArrival)
        total_response += static_cast<double>(r);
    result.meanResponseCycles =
        total_response / static_cast<double>(trace.size());
    result.meanJobsInSystem =
        run.slicesRun() > 0
            ? run.jobsInSystemIntegral() /
                  static_cast<double>(run.slicesRun())
            : 0.0;
    result.totalCycles = run.now();
    result.sampleCycles = run.sampleSlices() * backend->timesliceCycles();
    result.samplePhases = run.samplePhases();
    result.resamplesOnJobChange = run.resamplesOnJobChange();
    result.resamplesOnTimer = run.resamplesOnTimer();
    result.backend = backend->name();
    result.memory = backend->machine().memoryCounters();
    return result;
}

ResponseComparison
compareResponseTimes(const SimConfig &sim, const OpenSystemConfig &config,
                     ThreadPool &pool, stats::EventTrace *events)
{
    OpenSystemConfig resolved = config;
    resolved.meanInterarrivalPaper =
        config.effectiveInterarrivalPaper(sim, pool);
    const std::vector<JobArrival> trace =
        makeArrivalTrace(sim, resolved, pool);
    ResponseComparison comparison;
    comparison.naive = runOpenSystem(sim, resolved, trace,
                                     OpenPolicy::Naive, pool);
    comparison.sos = runOpenSystem(sim, resolved, trace, OpenPolicy::Sos,
                                   pool, events);
    comparison.jobsCompared = static_cast<int>(trace.size());
    if (comparison.naive.meanResponseCycles > 0.0) {
        comparison.improvementPct =
            100.0 *
            (comparison.naive.meanResponseCycles -
             comparison.sos.meanResponseCycles) /
            comparison.naive.meanResponseCycles;
    }
    return comparison;
}

} // namespace sos
