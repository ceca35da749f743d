#include "sos/model_screen.hh"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/logging.hh"
#include "model/features.hh"
#include "sched/job.hh"

namespace sos {

namespace {

/**
 * The candidate's coschedule tuple structure in pool indices: each
 * core's per-position tuples mapped through its group. This is the
 * same tuple set the live run would cycle through, so the features
 * match what composeScheduleFeatures sees in the closed drivers.
 */
std::vector<std::vector<int>>
candidateTuples(const OpenCandidate &candidate)
{
    std::vector<std::vector<int>> tuples;
    for (std::size_t k = 0; k < candidate.schedules.size(); ++k) {
        const std::vector<int> &group = candidate.groups[k];
        if (group.empty())
            continue;
        for (const std::vector<int> &positions :
             candidate.schedules[k].tuples()) {
            std::vector<int> tuple;
            tuple.reserve(positions.size());
            for (int pos : positions)
                tuple.push_back(
                    group[static_cast<std::size_t>(pos) % group.size()]);
            if (!tuple.empty())
                tuples.push_back(std::move(tuple));
        }
    }
    return tuples;
}

} // namespace

std::vector<std::size_t>
samplekShortlist(const std::vector<double> &predicted,
                 std::vector<bool> keep, int top_k)
{
    SOS_ASSERT(keep.size() == predicted.size());
    SOS_ASSERT(top_k > 0, "samplek must keep at least one candidate");
    std::vector<std::size_t> order(predicted.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return predicted[a] > predicted[b];
                     });
    const std::size_t keep_top =
        std::min(predicted.size(), static_cast<std::size_t>(top_k));
    for (std::size_t i = 0; i < keep_top; ++i)
        keep[order[i]] = true;

    std::vector<std::size_t> kept;
    for (std::size_t i = 0; i < keep.size(); ++i) {
        if (keep[i])
            kept.push_back(i);
    }
    return kept;
}

std::function<std::vector<std::size_t>(
    const std::vector<OpenCandidate> &, const std::vector<Job *> &)>
makeModelScreen(std::shared_ptr<const model::WsModel> ws_model,
                int top_k)
{
    SOS_ASSERT(ws_model != nullptr);
    SOS_ASSERT(top_k > 0, "samplek must keep at least one candidate");
    return [ws_model, top_k](
               const std::vector<OpenCandidate> &candidates,
               const std::vector<Job *> &pool)
               -> std::vector<std::size_t> {
        std::vector<model::ThreadSignature> signatures;
        signatures.reserve(pool.size());
        for (const Job *job : pool)
            signatures.push_back(model::makeThreadSignature(
                static_cast<int>(job->id()), job->profile(),
                job->soloIpc));

        const std::size_t count = candidates.size();
        std::vector<double> predicted(count, 0.0);
        std::vector<bool> keep(count, false);
        for (std::size_t i = 0; i < count; ++i) {
            const std::vector<std::vector<int>> tuples =
                candidateTuples(candidates[i]);
            if (tuples.empty()) {
                // Nothing to score; never drop what we cannot judge.
                keep[i] = true;
                predicted[i] =
                    -std::numeric_limits<double>::infinity();
                continue;
            }
            const model::FeatureVector features =
                model::composeScheduleFeatures(signatures, tuples);
            predicted[i] = ws_model->predict(features);
            if (ws_model->uncertainty(features) >
                ws_model->uncertaintyThreshold())
                keep[i] = true;
        }

        return samplekShortlist(predicted, std::move(keep), top_k);
    };
}

std::function<std::vector<std::size_t>(
    const std::vector<OpenCandidate> &, const std::vector<Job *> &)>
makeModelScreen(const std::string &path, int top_k)
{
    std::shared_ptr<const model::WsModel> ws_model;
    try {
        ws_model = model::loadModel(path);
    } catch (const model::ModelError &error) {
        fatal("samplek screen: ", error.what());
    }
    return makeModelScreen(std::move(ws_model), top_k);
}

} // namespace sos
