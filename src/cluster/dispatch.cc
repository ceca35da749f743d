#include "cluster/dispatch.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"
#include "model/features.hh"
#include "model/model.hh"
#include "trace/workload_library.hh"

namespace sos {

namespace {

class RandomDispatcher : public Dispatcher
{
  public:
    explicit RandomDispatcher(std::uint64_t seed)
        : rng_(seed ^ 0xd15a7c4edULL)
    {
    }

    std::string name() const override { return "random"; }

    int
    pick(const ClusterArrival &,
         const std::vector<NodeView> &views) override
    {
        return static_cast<int>(rng_.below(views.size()));
    }

  private:
    Rng rng_;
};

class RoundRobinDispatcher : public Dispatcher
{
  public:
    std::string name() const override { return "round-robin"; }

    int
    pick(const ClusterArrival &,
         const std::vector<NodeView> &views) override
    {
        const int node = cursor_ % static_cast<int>(views.size());
        cursor_ = (cursor_ + 1) % static_cast<int>(views.size());
        return node;
    }

  private:
    int cursor_ = 0;
};

class LeastLoadedDispatcher : public Dispatcher
{
  public:
    std::string name() const override { return "least-loaded"; }

    int
    pick(const ClusterArrival &,
         const std::vector<NodeView> &views) override
    {
        const NodeView *best = &views.front();
        for (const NodeView &view : views) {
            if (view.poolSize < best->poolSize ||
                (view.poolSize == best->poolSize &&
                 view.queuedWork < best->queuedWork)) {
                best = &view;
            }
        }
        return best->id;
    }
};

/**
 * Symbiosis-aware routing: start from the normalized load and discount
 * nodes whose measured signature complements the job's static mix.
 * A node heavy in FP issue pairs well with an integer-leaning job
 * (and vice versa: disjoint functional units, the paper's Figure 3
 * observation), while a node already missing in L1D is a bad home for
 * a large-working-set job. Weights are mild on purpose -- load
 * balance dominates, symbiosis breaks the ties it can.
 */
class SignatureDispatcher : public Dispatcher
{
  public:
    std::string name() const override { return "signature"; }

    int
    pick(const ClusterArrival &arrival,
         const std::vector<NodeView> &views) override
    {
        const WorkloadProfile &profile =
            WorkloadLibrary::instance().get(arrival.workload);
        const double job_fp = profile.fpFraction();
        const double job_ws =
            model::normalizedWorkingSet(profile.workingSetBytes);

        double mean_pool = 0.0;
        for (const NodeView &view : views)
            mean_pool += static_cast<double>(view.poolSize);
        mean_pool =
            std::max(1.0, mean_pool /
                              static_cast<double>(views.size()));

        const NodeView *best = nullptr;
        double best_score = 0.0;
        for (const NodeView &view : views) {
            double score =
                static_cast<double>(view.poolSize) / mean_pool;
            if (view.signature.cycles > 0) {
                const double node_fp =
                    model::counterFpShare(view.signature);
                // Complementary mixes attract, cache pressure repels.
                score -= 0.3 * std::abs(node_fp - job_fp);
                score += 0.3 * job_ws *
                         (1.0 - view.signature.l1dHitRate());
            }
            if (best == nullptr || score < best_score) {
                best = &view;
                best_score = score;
            }
        }
        return best->id;
    }
};

/**
 * Model-driven routing: the load term of "signature", but with the
 * hand-tuned symbiosis discount replaced by a trained WS model's
 * prediction for the (job, node) coschedule tuple. The job side is
 * its static ThreadSignature; the node side is the proxy signature of
 * its recent counter measurements. Like the learned predictor, the
 * model path comes from SimConfig::modelPath (--model / SOS_MODEL);
 * construction without one succeeds (every registered name must
 * construct) and pick() fails loudly.
 */
class LearnedDispatcher : public Dispatcher
{
  public:
    explicit LearnedDispatcher(const std::string &model_path)
    {
        if (model_path.empty())
            return;
        try {
            model_ = model::loadModel(model_path);
        } catch (const model::ModelError &error) {
            fatal("learned dispatcher: ", error.what());
        }
    }

    std::string name() const override { return "learned"; }

    int
    pick(const ClusterArrival &arrival,
         const std::vector<NodeView> &views) override
    {
        if (!model_) {
            fatal("the 'learned' dispatcher needs a model: pass --model "
                  "or set SOS_MODEL to a file written by sostrain");
        }
        const WorkloadProfile &profile =
            WorkloadLibrary::instance().get(arrival.workload);
        const model::ThreadSignature job =
            model::makeThreadSignature(arrival.klass, profile, 0.0);

        double mean_pool = 0.0;
        for (const NodeView &view : views)
            mean_pool += static_cast<double>(view.poolSize);
        mean_pool =
            std::max(1.0, mean_pool /
                              static_cast<double>(views.size()));

        const NodeView *best = nullptr;
        double best_score = 0.0;
        for (const NodeView &view : views) {
            double score =
                static_cast<double>(view.poolSize) / mean_pool;
            if (view.signature.cycles > 0) {
                const model::FeatureVector features =
                    model::composeTupleFeatures(
                        {job,
                         model::signatureFromCounters(view.signature)});
                // Higher predicted WS makes the node more attractive;
                // the weight matches "signature" so load still rules.
                score -= 0.3 * model_->predict(features);
            }
            if (best == nullptr || score < best_score) {
                best = &view;
                best_score = score;
            }
        }
        return best->id;
    }

  private:
    std::shared_ptr<const model::WsModel> model_;
};

} // namespace

std::unique_ptr<Dispatcher>
makeDispatcher(const std::string &name, std::uint64_t seed,
               const std::string &model_path)
{
    if (name == "random")
        return std::make_unique<RandomDispatcher>(seed);
    if (name == "round-robin")
        return std::make_unique<RoundRobinDispatcher>();
    if (name == "least-loaded")
        return std::make_unique<LeastLoadedDispatcher>();
    if (name == "signature")
        return std::make_unique<SignatureDispatcher>();
    if (name == "learned")
        return std::make_unique<LearnedDispatcher>(model_path);
    std::string known;
    for (const std::string &registered : dispatcherNames())
        known += (known.empty() ? "" : ", ") + registered;
    fatal("unknown dispatch policy '", name, "' (known: ", known, ")");
}

const std::vector<std::string> &
dispatcherNames()
{
    static const std::vector<std::string> names = {
        "random", "round-robin", "least-loaded", "signature", "learned"};
    return names;
}

} // namespace sos
