/**
 * @file
 * One cluster node: a machine, its SOS kernel loop, and a calibrated
 * job factory, advanced between dispatch barriers.
 *
 * A node owns the full single-machine stack -- an EngineBackend (one
 * SMT core or a CMP) and an OpenRun (the kernel's arrival-driven loop
 * in resumable form), set up exactly as a single-machine open run
 * (openRunSetup()). dispatch() queues a routed arrival; the cluster
 * advances the node's run to each epoch barrier. The node performs
 * no synchronization of its own, so the cluster may advance all nodes
 * concurrently on a thread pool (one task per node, a pure function
 * of node state) and remain bit-identical to a serial sweep.
 *
 * Every node runs on the cluster's one pool: a sample phase's forks
 * are a batch nested in the node's task, so workers left idle by a
 * node with nothing to sample join another node's forks.
 */

#ifndef SOS_CLUSTER_NODE_HH
#define SOS_CLUSTER_NODE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/arrival.hh"
#include "cluster/dispatch.hh"
#include "sim/open_system.hh"
#include "sim/sim_config.hh"
#include "sos/open_backend.hh"
#include "sos/open_run.hh"
#include "stats/trace.hh"

namespace sos {

/** One machine of the cluster, advanced between dispatch epochs. */
class ClusterNode
{
  public:
    /** Kernel knobs shared by every node of a cluster. */
    struct Params
    {
        /**
         * The machine (level, numCores), the kernel knobs
         * (sampleSchedules, predictor, resamplePolicy) and the cluster
         * seed; the arrival-trace fields are unused.
         */
        OpenSystemConfig open;
        /** Base symbios interval in simulated cycles. */
        std::uint64_t baseIntervalCycles = 1;
        /** Record this node's kernel decisions (gated upstream). */
        bool wantTrace = false;
        std::uint64_t traceStride = 1;
    };

    /**
     * @param id      Node index; tags the trace and salts the seed.
     * @param sim     This node's simulation config (a cluster with
     *                per-node machine files passes distinct configs).
     * @param params  Shared kernel knobs.
     * @param arrivals The cluster-wide trace; the factory materializes
     *                jobs from it by global index. Must outlive the
     *                node.
     * @param workers The pool sample phases fork on. Must outlive the
     *                node.
     */
    ClusterNode(int id, const SimConfig &sim, const Params &params,
                const std::vector<ClusterArrival> &arrivals,
                ThreadPool &workers);

    ClusterNode(const ClusterNode &) = delete;
    ClusterNode &operator=(const ClusterNode &) = delete;

    int id() const { return id_; }

    /** Route one arrival here (cycles nondecreasing per node). */
    void dispatch(std::size_t global_index);

    /** The dispatcher's snapshot of this node, taken at a barrier. */
    NodeView view();

    /**
     * The node's open run: advanced to each barrier by the cluster,
     * finalized once drained, and read for results after the run.
     */
    OpenRun &run() { return *run_; }
    const OpenRun &run() const { return *run_; }

    std::uint64_t timesliceCycles() const
    {
        return backend_->timesliceCycles();
    }

    /** This node's decision trace (node-tagged, stride-gated). */
    const stats::EventTrace &trace() const { return trace_; }

  private:
    int id_;
    const std::vector<ClusterArrival> &arrivals_;
    std::unique_ptr<EngineBackend> backend_;
    stats::EventTrace trace_;
    std::unique_ptr<OpenRun> run_;
};

} // namespace sos

#endif // SOS_CLUSTER_NODE_HH
