/**
 * @file
 * The cluster layer: N machines, one arrival stream, epoch dispatch.
 *
 * A Cluster owns N ClusterNodes (homogeneous, or heterogeneous via
 * per-node machine-config files) and replays one deterministic
 * ClusterArrival trace through a Dispatcher. Time is divided into
 * dispatch epochs of a fixed number of timeslices; the run alternates
 *
 *   barrier:  (serial) snapshot a NodeView per node, route every
 *             arrival due in the coming epoch through the dispatcher,
 *             folding each pick back into the views;
 *   epoch:    (parallel) advance every node's OpenRun to the epoch
 *             horizon, one ThreadPool task per node; a node's sample
 *             phase forks are a batch nested in its task.
 *
 * Nodes share no mutable state and a node's advance is a pure
 * function of its own (config, injected arrivals), so the wall clock
 * scales with host threads while results stay bit-identical to a
 * serial execution at any SOS_JOBS -- the same determinism contract
 * the fork-level sweeps honor, one level up. Epochs with no arrivals
 * due are skipped in one jump (no barrier is observable when nothing
 * is dispatched at it).
 *
 * Response-time percentiles are accumulated per SLA class into
 * streaming stats::Quantile histograms, and each node reports its
 * utilization (busy slices over the cluster makespan); publishStats()
 * writes both to the manifest.
 */

#ifndef SOS_CLUSTER_CLUSTER_HH
#define SOS_CLUSTER_CLUSTER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/arrival.hh"
#include "cluster/dispatch.hh"
#include "cluster/node.hh"
#include "common/thread_pool.hh"
#include "sim/sim_config.hh"
#include "stats/stats.hh"
#include "stats/trace.hh"

namespace sos {

/** Parameters of one cluster run. */
struct ClusterConfig
{
    /** Machines in the cluster. */
    int numNodes = 2;

    /** Dispatch policy (see dispatcherNames()). */
    std::string dispatch = "signature";

    /** Arrival process (see arrivalProcessNames()). */
    std::string process = "poisson";

    /** Arrivals to generate and drain. */
    int numJobs = 1000;

    /** SMT level of every node's cores. */
    int level = 3;

    /** SMT cores per node (per-node machine configs may override). */
    int numCores = 1;

    /** Mean job length in paper cycles of solo execution. */
    std::uint64_t meanJobPaperCycles = 150000000;

    /**
     * Mean interarrival time in paper cycles at the cluster front
     * door; 0 derives the stable value from the summed measured
     * capacity of all nodes (each node then sees roughly the load the
     * single-machine open system calls stable).
     */
    std::uint64_t meanInterarrivalPaper = 0;

    /** Timeslices per dispatch epoch. */
    int epochSlices = 8;

    /** @name Kernel knobs forwarded to every node @{ */
    int sampleSchedules = 10;
    std::string predictor = "IPC";
    std::string resamplePolicy = "backoff";
    /** @} */

    std::uint64_t seed = 0x0b5e55edULL;

    /** Priority/SLA classes; empty = one implicit class. */
    std::vector<ArrivalClass> classes;

    /**
     * Per-node simulation configs, for nodes with a machine file of
     * their own (parseBenchArgs builds one per file, under the same
     * overrides as the base). Node k < size() runs nodeConfigs[k],
     * the rest run the base config; more entries than nodes are an
     * error.
     */
    std::vector<SimConfig> nodeConfigs;
};

/** Per-node outcome of a cluster run. */
struct ClusterNodeSummary
{
    int id = 0;
    std::size_t dispatched = 0;
    std::size_t completed = 0;
    std::uint64_t busyCycles = 0;   ///< slices run x timeslice
    std::uint64_t sampleCycles = 0; ///< spent in sample phases
    int samplePhases = 0;
    /** busyCycles over the cluster makespan, in [0, 1]. */
    double utilization = 0.0;
};

/** Outcome of one cluster run. */
struct ClusterResult
{
    std::vector<ClusterNodeSummary> nodes;
    /** Response time per arrival index (matches the trace order). */
    std::vector<std::uint64_t> responseByArrival;
    /** Node that served each arrival. */
    std::vector<int> nodeByArrival;
    std::size_t completed = 0;
    double meanResponseCycles = 0.0;
    std::uint64_t totalCycles = 0; ///< makespan: max node clock
    std::uint64_t epochs = 0;      ///< dispatch barriers executed
};

/** N machines fed from one arrival trace through a dispatcher. */
class Cluster
{
  public:
    /**
     * Generates the arrival trace and per-node configurations; the
     * simulation itself runs in run(). @p base supplies cycle scale,
     * seeds, the default machine and the worker count of the one pool
     * the cluster owns for its lifetime: the constructor's capacity
     * probes, the node advances and their sample-phase forks all run
     * on it.
     */
    Cluster(const SimConfig &base, const ClusterConfig &config);

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    /** The deterministic arrival trace every policy replays. */
    const std::vector<ClusterArrival> &arrivals() const
    {
        return arrivals_;
    }

    /** Effective front-door mean interarrival in paper cycles. */
    std::uint64_t meanInterarrivalPaper() const
    {
        return interarrivalPaper_;
    }

    /**
     * Drain the whole trace. When @p events is non-null the cluster's
     * dispatch decisions and every node's kernel decisions (tagged
     * with their node id) are appended to it, cluster first, then
     * nodes in id order; SOS_TRACE_SAMPLE gates both at the source.
     * A cluster instance runs once.
     */
    ClusterResult run(stats::EventTrace *events = nullptr);

    /** The stored result (run() must have completed). */
    const ClusterResult &result() const { return result_; }

    /**
     * Register the run's manifest stats under @p group: cluster-wide
     * and per-class response-time quantiles (p50/p95/p99), per-node
     * dispatch counts and utilization, and the run configuration.
     */
    void publishStats(const stats::Group &group) const;

  private:
    void dispatchDue(std::uint64_t horizon,
                     std::vector<NodeView> &views,
                     stats::EventTrace *trace);

    SimConfig base_;
    ClusterConfig config_;
    ThreadPool pool_;
    std::vector<SimConfig> nodeSims_;
    std::vector<ClusterNode::Params> nodeParams_;
    std::uint64_t interarrivalPaper_ = 0;
    std::vector<ClusterArrival> arrivals_;
    std::vector<ArrivalClass> classes_;
    std::unique_ptr<Dispatcher> dispatcher_;
    std::vector<std::unique_ptr<ClusterNode>> nodes_;
    std::size_t nextArrival_ = 0;
    bool ran_ = false;
    ClusterResult result_;
};

} // namespace sos

#endif // SOS_CLUSTER_CLUSTER_HH
