/**
 * @file
 * Cluster dispatch policies: which node gets the next job?
 *
 * A dispatcher runs serially at each epoch barrier and routes every
 * arrival due in the coming epoch to one node. It sees a NodeView per
 * node -- queue depth, outstanding work, and the performance-counter
 * signature the node's SOS kernel accumulated over its recent live
 * slices -- and nothing else, so a policy decision is a pure function
 * of (arrival, views, policy state) and the cluster stays bit-identical
 * across host worker counts.
 *
 * Registered policies:
 *  - "random":       uniform node draw from a private RNG stream;
 *  - "round-robin":  rotate through nodes in id order;
 *  - "least-loaded": fewest resident jobs, ties by outstanding work
 *                    then id (classic join-the-shortest-queue);
 *  - "signature":    least load, discounted when the job's static mix
 *                    complements the node's measured counter signature
 *                    (FP/int balance, L1D pressure) -- the symbiosis
 *                    argument of the paper lifted one level up: route
 *                    jobs so each node's SOS kernel has friendly mixes
 *                    to coschedule;
 *  - "learned":      the load term of "signature" with the hand-tuned
 *                    discount replaced by a trained WS model's
 *                    prediction for the (job, node) tuple; the model
 *                    file is SimConfig::modelPath (see sostrain).
 */

#ifndef SOS_CLUSTER_DISPATCH_HH
#define SOS_CLUSTER_DISPATCH_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/arrival.hh"
#include "cpu/perf_counters.hh"

namespace sos {

/** What a dispatcher may know about one node at a barrier. */
struct NodeView
{
    int id = 0;

    /** Jobs resident (arrived, not finished) plus routed this epoch. */
    int poolSize = 0;

    /** Instructions outstanding across resident and routed jobs. */
    std::uint64_t queuedWork = 0;

    /**
     * Counters the node accumulated over its live slices since the
     * previous barrier (PerfCounters::cycles == 0 until the node has
     * run any -- policies must tolerate an empty signature).
     */
    PerfCounters signature;
};

/** One routing policy; stateful policies keep private members. */
class Dispatcher
{
  public:
    virtual ~Dispatcher() = default;

    virtual std::string name() const = 0;

    /**
     * Node id that receives @p arrival. @p views holds one entry per
     * node in id order; the caller folds the pick back into the view
     * (poolSize, queuedWork) before the next call so batch dispatches
     * spread instead of dogpiling.
     */
    virtual int pick(const ClusterArrival &arrival,
                     const std::vector<NodeView> &views) = 0;
};

/**
 * Build a dispatcher by registry name; fatal() -- listing the
 * registered names -- when @p name is unknown. @p seed feeds the
 * "random" policy's private stream and @p model_path the "learned"
 * policy's model (empty = inert until asked to pick); the others
 * ignore both.
 */
std::unique_ptr<Dispatcher>
makeDispatcher(const std::string &name, std::uint64_t seed,
               const std::string &model_path = "");

/** Registered dispatch-policy names. */
const std::vector<std::string> &dispatcherNames();

} // namespace sos

#endif // SOS_CLUSTER_DISPATCH_HH
