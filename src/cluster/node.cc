#include "cluster/node.hh"

#include <string>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sos/open_backend.hh"
#include "trace/workload_library.hh"

namespace sos {

namespace {

std::unique_ptr<EngineBackend>
makeNodeBackend(const SimConfig &sim, int level, int num_cores)
{
    std::unique_ptr<EngineBackend> backend;
    if (num_cores <= 1) {
        backend = std::make_unique<TimesliceBackend>(
            sim.machineFor(level, 1), sim.timesliceCycles());
    } else {
        backend = std::make_unique<MachineBackend>(
            sim.machineFor(level, num_cores), sim.timesliceCycles());
    }
    backend->setSampling(sim.sample);
    return backend;
}

} // namespace

ClusterNode::ClusterNode(int id, const SimConfig &sim,
                         const Params &params,
                         const std::vector<ClusterArrival> &arrivals)
    : id_(id), arrivals_(arrivals),
      calibrator_(sim.referenceCoreFor(params.level),
                  sim.referenceMem(), sim.calibWarmupCycles,
                  sim.calibMeasureCycles),
      backend_(makeNodeBackend(sim, params.level, params.numCores)),
      timeslice_(sim.timesliceCycles())
{
    trace_.setPhaseStride(params.traceStride);
    trace_.setContextField("node", std::to_string(id));

    SosKernel::OpenConfig kernel_config;
    kernel_config.sampleSchedules = params.sampleSchedules;
    kernel_config.predictor = params.predictor;
    kernel_config.modelPath = sim.modelPath;
    kernel_config.resamplePolicy = params.resamplePolicy;
    kernel_config.baseIntervalCycles = params.baseIntervalCycles;
    // Distinct per-node decision streams, derived from the cluster
    // seed alone (never from dispatch order): node identity is part
    // of the configuration, so runs replay bit-identically.
    kernel_config.seed = params.seed ^ 0x5051d67eULL ^
                         mix64(static_cast<std::uint64_t>(id) + 0x90deULL);
    // Node-level parallelism replaces fork-level parallelism.
    kernel_config.jobs = 1;

    const std::uint64_t job_seed = params.seed;
    run_ = std::make_unique<OpenRun>(
        *backend_, kernel_config, OpenPolicy::Sos,
        [this, job_seed](std::size_t index) {
            const ClusterArrival &arrival = arrivals_[index];
            const WorkloadProfile &profile =
                WorkloadLibrary::instance().get(arrival.workload);
            auto job = std::make_unique<Job>(
                static_cast<std::uint32_t>(index + 1), profile,
                job_seed ^ mix64(index + 101), 1, false);
            job->arrivalCycle = arrival.arrivalCycle;
            job->sizeInstructions = arrival.sizeInstructions;
            job->soloIpc = calibrator_.soloIpc(arrival.workload);
            return job;
        },
        params.wantTrace ? &trace_ : nullptr);
}

void
ClusterNode::dispatch(std::size_t global_index)
{
    SOS_ASSERT(global_index < arrivals_.size());
    run_->inject(arrivals_[global_index].arrivalCycle,
                 static_cast<int>(global_index));
}

NodeView
ClusterNode::view()
{
    NodeView view;
    view.id = id_;
    // injected - completed counts resident *and* still-queued jobs --
    // exactly the load a new arrival will contend with.
    view.poolSize = static_cast<int>(run_->injected() -
                                     run_->completed());
    view.queuedWork = run_->remainingInstructions();
    view.signature = run_->takeRecentCounters();
    return view;
}

} // namespace sos
