#include "cluster/node.hh"

#include <string>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"

namespace sos {

ClusterNode::ClusterNode(int id, const SimConfig &sim,
                         const Params &params,
                         const std::vector<ClusterArrival> &arrivals,
                         ThreadPool &workers)
    : id_(id), arrivals_(arrivals),
      backend_(makeOpenBackend(sim, params.open.level,
                               params.open.numCores))
{
    trace_.setPhaseStride(params.traceStride);
    trace_.setContextField("node", std::to_string(id));

    OpenRunSetup setup = openRunSetup(
        sim, params.open, params.baseIntervalCycles, params.open.seed,
        [this](std::size_t index) {
            const ClusterArrival &arrival = arrivals_[index];
            return JobArrival{arrival.workload, arrival.arrivalCycle,
                              arrival.sizeInstructions};
        });
    // Distinct per-node decision streams, derived from the cluster
    // seed alone (never from dispatch order): node identity is part
    // of the configuration, so runs replay bit-identically.
    setup.config.seed ^= mix64(static_cast<std::uint64_t>(id) + 0x90deULL);

    run_ = std::make_unique<OpenRun>(
        *backend_, setup.config, OpenPolicy::Sos,
        std::move(setup.makeJob), workers,
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
