#include "core/learned_predictor.hh"

#include "common/logging.hh"

namespace sos {

LearnedPredictor::LearnedPredictor(const std::string &model_path)
{
    if (model_path.empty())
        return; // inert until a model arrives
    try {
        model_ = model::loadModel(model_path);
    } catch (const model::ModelError &error) {
        fatal("learned predictor: ", error.what());
    }
}

LearnedPredictor::LearnedPredictor(
    std::shared_ptr<const model::WsModel> ws_model)
    : model_(std::move(ws_model))
{
}

void
LearnedPredictor::setCandidateFeatures(
    std::vector<model::FeatureVector> features)
{
    features_ = std::move(features);
}

std::vector<double>
LearnedPredictor::score(const std::vector<ScheduleProfile> &profiles) const
{
    if (!model_) {
        fatal("the 'learned' predictor needs a model: pass --model or "
              "set SOS_MODEL");
    }
    if (features_.size() != profiles.size()) {
        fatal("the 'learned' predictor has features for ",
              features_.size(), " candidates but was asked to rank ",
              profiles.size(),
              " (the driver must call setCandidateFeatures first)");
    }
    std::vector<double> out;
    out.reserve(features_.size());
    for (const model::FeatureVector &features : features_)
        out.push_back(model_->predict(features));
    return out;
}

} // namespace sos
