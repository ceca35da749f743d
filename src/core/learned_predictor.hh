/**
 * @file
 * The "learned" predictor: ranks candidates with a trained WS model.
 *
 * Unlike the paper's hand-tuned predictors, the learned predictor
 * scores a candidate from its *static* feature vector (composed from
 * thread signatures before any simulation, model/features.hh), not
 * from sampled counters -- the driver that owns the candidate list
 * injects the per-candidate features via setCandidateFeatures()
 * before asking for a ranking. The ScheduleProfile argument only
 * supplies the candidate count.
 *
 * Registry contract: makePredictor("learned") must construct even
 * with no model configured (every registered name is constructible,
 * test_predictors.cpp), so an empty model path builds an inert
 * instance that fails with a clear fatal() only when actually asked
 * to score. The path is SimConfig::modelPath (--model / SOS_MODEL),
 * handed down through makePredictor().
 */

#ifndef SOS_CORE_LEARNED_PREDICTOR_HH
#define SOS_CORE_LEARNED_PREDICTOR_HH

#include <memory>
#include <string>
#include <vector>

#include "core/predictor.hh"
#include "model/model.hh"

namespace sos {

/** Predictor backed by a trained model (SOS_MODEL / --model). */
class LearnedPredictor : public Predictor
{
  public:
    /**
     * Loads the model at @p model_path (fatal on a bad file); inert
     * when the path is empty.
     */
    explicit LearnedPredictor(const std::string &model_path = "");

    /** Uses an already-loaded model (the --model plumbing). */
    explicit LearnedPredictor(std::shared_ptr<const model::WsModel> ws_model);

    std::string name() const override { return "learned"; }

    /** True once a model is available for scoring. */
    bool hasModel() const { return model_ != nullptr; }

    /** The loaded model (null when inert). */
    const model::WsModel *wsModel() const { return model_.get(); }

    /**
     * Features of the candidates the next score() call will rank,
     * in candidate order.
     */
    void setCandidateFeatures(std::vector<model::FeatureVector> features);

    /**
     * Predicted WS per candidate. Fatal without a model or when the
     * injected features do not match the candidate count.
     */
    std::vector<double>
    score(const std::vector<ScheduleProfile> &profiles) const override;

  private:
    std::shared_ptr<const model::WsModel> model_;
    std::vector<model::FeatureVector> features_;
};

} // namespace sos

#endif // SOS_CORE_LEARNED_PREDICTOR_HH
