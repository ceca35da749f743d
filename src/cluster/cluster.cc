#include "cluster/cluster.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/open_system.hh"

namespace sos {

Cluster::Cluster(const SimConfig &base, const ClusterConfig &config)
    : base_(base), config_(config), pool_(resolveJobs(base.jobs))
{
    SOS_ASSERT(config.numNodes > 0, "a cluster needs at least one node");
    SOS_ASSERT(config.epochSlices > 0,
               "a dispatch epoch needs at least one timeslice");
    SOS_ASSERT(static_cast<int>(config.nodeConfigs.size()) <=
                   config.numNodes,
               "more per-node configs than nodes");
    classes_ = effectiveClasses(ArrivalSpec{.classes = config.classes});
    dispatcher_ =
        makeDispatcher(config.dispatch, config.seed, base.modelPath);

    // Per-node configuration: the node's own config, else the base.
    // The stable single-machine interarrival is resolved once per
    // distinct config -- each node config, then the base if any node
    // runs it -- from one batch of capacity probes.
    std::vector<SimConfig> sims = config.nodeConfigs;
    const std::size_t base_index = sims.size();
    if (static_cast<int>(sims.size()) < config.numNodes)
        sims.push_back(base);
    std::vector<CapacityProbe> probes;
    for (const SimConfig &sim : sims)
        probes.push_back({&sim, config.level});
    const std::vector<double> capacities =
        measuredCapacities(probes, pool_);
    std::vector<OpenSystemConfig> opens(sims.size());
    for (std::size_t i = 0; i < sims.size(); ++i) {
        OpenSystemConfig &open = opens[i];
        open.level = config.level;
        open.numCores = sims[i].machineCores > 0 ? sims[i].machineCores
                                                 : config.numCores;
        open.meanJobPaperCycles = config.meanJobPaperCycles;
        open.sampleSchedules = config.sampleSchedules;
        open.predictor = config.predictor;
        open.resamplePolicy = config.resamplePolicy;
        open.seed = config.seed;
        open.meanInterarrivalPaper =
            open.stableInterarrivalPaper(capacities[i]);
    }

    double cluster_rate = 0.0;
    for (int k = 0; k < config.numNodes; ++k) {
        const std::size_t source =
            std::min(static_cast<std::size_t>(k), base_index);
        ClusterNode::Params params;
        params.open = opens[source];
        // The stable single-machine interarrival doubles as this
        // node's resample base interval and its capacity share of the
        // front-door rate.
        const std::uint64_t stable = params.open.meanInterarrivalPaper;
        if (stable / base.cycleScale == 0) {
            fatal("cluster: node ", k, "'s stable interarrival (", stable,
                  " paper cycles) is shorter than the cycle scale (",
                  base.cycleScale, "); raise the mean job (--mean-job, ",
                  config.meanJobPaperCycles, " paper cycles)");
        }
        cluster_rate += 1.0 / static_cast<double>(stable);
        params.baseIntervalCycles = base.scaled(stable);
        params.traceStride = base.traceSample;
        nodeSims_.push_back(sims[source]);
        nodeParams_.push_back(std::move(params));
    }

    interarrivalPaper_ =
        config.meanInterarrivalPaper > 0
            ? config.meanInterarrivalPaper
            : static_cast<std::uint64_t>(1.0 / cluster_rate);
    SOS_ASSERT(interarrivalPaper_ > 0);

    ArrivalSpec spec;
    spec.process = config.process;
    spec.numJobs = config.numJobs;
    spec.meanInterarrivalCycles = std::max(
        1.0, static_cast<double>(interarrivalPaper_) /
                 static_cast<double>(base.cycleScale));
    spec.meanJobCycles =
        static_cast<double>(base.scaled(config.meanJobPaperCycles));
    spec.level = config.level;
    spec.classes = config.classes;
    spec.seed = config.seed;
    arrivals_ = makeClusterArrivals(base, spec);
}

void
Cluster::dispatchDue(std::uint64_t horizon,
                     std::vector<NodeView> &views,
                     stats::EventTrace *trace)
{
    while (nextArrival_ < arrivals_.size() &&
           arrivals_[nextArrival_].arrivalCycle < horizon) {
        const ClusterArrival &arrival = arrivals_[nextArrival_];
        const int node = dispatcher_->pick(arrival, views);
        SOS_ASSERT(node >= 0 && node < config_.numNodes,
                   "dispatcher picked a node outside the cluster");
        nodes_[static_cast<std::size_t>(node)]->dispatch(nextArrival_);
        result_.nodeByArrival[nextArrival_] = node;
        // Fold the pick into the view so one barrier's batch spreads.
        NodeView &view = views[static_cast<std::size_t>(node)];
        ++view.poolSize;
        view.queuedWork += arrival.sizeInstructions;
        if (trace != nullptr) {
            trace->event("dispatch")
                .field("job", static_cast<std::uint64_t>(nextArrival_))
                .field("workload", arrival.workload)
                .field(
                    "class",
                    classes_[static_cast<std::size_t>(arrival.klass)]
                        .name)
                .field("node", node);
        }
        ++nextArrival_;
    }
}

ClusterResult
Cluster::run(stats::EventTrace *events)
{
    SOS_ASSERT(!ran_, "a cluster instance runs once");
    ran_ = true;

    const bool want_trace = events != nullptr;
    stats::EventTrace dispatch_trace;
    dispatch_trace.setPhaseStride(base_.traceSample);

    for (int k = 0; k < config_.numNodes; ++k) {
        ClusterNode::Params &params =
            nodeParams_[static_cast<std::size_t>(k)];
        params.wantTrace = want_trace;
        nodes_.push_back(std::make_unique<ClusterNode>(
            k, nodeSims_[static_cast<std::size_t>(k)], params,
            arrivals_, pool_));
    }

    const std::uint64_t timeslice = base_.timesliceCycles();
    for (const auto &node : nodes_) {
        SOS_ASSERT(node->timesliceCycles() == timeslice,
                   "cluster nodes must share the timeslice grid");
    }
    const std::uint64_t epoch_cycles =
        static_cast<std::uint64_t>(config_.epochSlices) * timeslice;

    result_.nodeByArrival.assign(arrivals_.size(), -1);
    result_.responseByArrival.assign(arrivals_.size(), 0);

    // Nodes are the unit of fan-out; their forks nest inside.
    const auto node_count = static_cast<std::size_t>(config_.numNodes);
    const auto advanceAll = [&](std::uint64_t limit) {
        pool_.run(node_count, [&](std::size_t k) {
            nodes_[k]->run().advanceTo(limit);
        });
    };

    std::uint64_t reached = 0; ///< limit of the last advanceAll
    while (nextArrival_ < arrivals_.size()) {
        // Jump straight to the epoch of the next undispatched arrival
        // (unobservable barriers with nothing to dispatch are skipped).
        const std::uint64_t epoch =
            arrivals_[nextArrival_].arrivalCycle / epoch_cycles;
        const std::uint64_t barrier = epoch * epoch_cycles;
        const std::uint64_t horizon = barrier + epoch_cycles;
        if (barrier > reached) {
            advanceAll(barrier);
            reached = barrier;
        }

        std::vector<NodeView> views;
        views.reserve(node_count);
        for (const auto &node : nodes_)
            views.push_back(node->view());

        if (want_trace) {
            // The opener must precede its "dispatch" followers so a
            // trace stride gates whole epoch groups.
            dispatch_trace.event("dispatch_epoch")
                .field("epoch", epoch)
                .field("cycle", barrier)
                .field("policy", dispatcher_->name());
        }
        dispatchDue(horizon,
                    views, want_trace ? &dispatch_trace : nullptr);

        advanceAll(horizon);
        reached = horizon;
        ++result_.epochs;
    }

    // Everything is routed: drain without further barriers.
    advanceAll(OpenRun::kNoLimit);
    for (const auto &node : nodes_)
        node->run().finalize();

    // Harvest.
    std::uint64_t makespan = 0;
    for (const auto &node : nodes_)
        makespan = std::max(makespan, node->run().now());
    double total_response = 0.0;
    for (const auto &node : nodes_) {
        ClusterNodeSummary summary;
        summary.id = node->id();
        summary.dispatched = node->run().injected();
        summary.completed = node->run().completed();
        summary.busyCycles = node->run().slicesRun() * timeslice;
        summary.sampleCycles = node->run().sampleSlices() * timeslice;
        summary.samplePhases = node->run().samplePhases();
        summary.utilization =
            makespan > 0 ? static_cast<double>(summary.busyCycles) /
                               static_cast<double>(makespan)
                         : 0.0;
        result_.nodes.push_back(summary);
        result_.completed += node->run().completed();
        for (const auto &[index, response] : node->run().responses()) {
            result_.responseByArrival[static_cast<std::size_t>(
                index)] = response;
            total_response += static_cast<double>(response);
        }
    }
    result_.meanResponseCycles =
        arrivals_.empty()
            ? 0.0
            : total_response / static_cast<double>(arrivals_.size());
    result_.totalCycles = makespan;

    if (events != nullptr) {
        events->append(dispatch_trace);
        for (const auto &node : nodes_)
            events->append(node->trace());
    }
    return result_;
}

void
Cluster::publishStats(const stats::Group &group) const
{
    SOS_ASSERT(ran_, "publishStats() before run()");

    group.info("dispatch", "dispatch policy") = dispatcher_->name();
    group.info("arrival_process", "front-door arrival process") =
        config_.process;
    group.scalar("nodes", "machines in the cluster") =
        static_cast<std::uint64_t>(config_.numNodes);
    group.scalar("jobs", "arrivals simulated") =
        static_cast<std::uint64_t>(arrivals_.size());
    group.scalar("completed", "jobs drained") =
        static_cast<std::uint64_t>(result_.completed);
    group.scalar("epochs", "dispatch barriers executed") =
        result_.epochs;
    group.scalar("epoch_slices", "timeslices per dispatch epoch") =
        static_cast<std::uint64_t>(config_.epochSlices);
    group.scalar("interarrival_paper_cycles",
                 "front-door mean interarrival (paper cycles)") =
        interarrivalPaper_;
    group.scalar("total_cycles", "cluster makespan") =
        result_.totalCycles;
    group.value("mean_response_cycles", "mean job response time") =
        result_.meanResponseCycles;

    // Response-time percentiles, cluster-wide and per class.
    stats::Quantile &all = group.quantile(
        "response_cycles", "job response time (streaming quantiles)");
    const stats::Group by_class = group.group("class");
    std::vector<stats::Quantile *> class_quantiles;
    for (const ArrivalClass &klass : classes_) {
        class_quantiles.push_back(&by_class.group(klass.name).quantile(
            "response_cycles", "response time of this class"));
    }
    for (std::size_t i = 0; i < arrivals_.size(); ++i) {
        const auto response =
            static_cast<double>(result_.responseByArrival[i]);
        all.sample(response);
        class_quantiles[static_cast<std::size_t>(
                            arrivals_[i].klass)]
            ->sample(response);
    }

    for (const ClusterNodeSummary &node : result_.nodes) {
        const stats::Group node_group =
            group.group("node" + std::to_string(node.id));
        node_group.scalar("dispatched", "jobs routed here") =
            static_cast<std::uint64_t>(node.dispatched);
        node_group.scalar("completed", "jobs finished here") =
            static_cast<std::uint64_t>(node.completed);
        node_group.scalar("busy_cycles",
                          "cycles spent running timeslices") =
            node.busyCycles;
        node_group.scalar("sample_cycles",
                          "cycles spent in sample phases") =
            node.sampleCycles;
        node_group.scalar("sample_phases", "sample phases run") =
            static_cast<std::uint64_t>(node.samplePhases);
        node_group.value("utilization",
                         "busy cycles over the cluster makespan") =
            node.utilization;
    }
}

} // namespace sos
