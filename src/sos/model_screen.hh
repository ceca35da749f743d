/**
 * @file
 * The samplek candidate screen for open-system runs.
 *
 * Builds the OpenRun::Config::screen function from a trained WS model
 * (sostrain output): every drawn candidate is scored from static
 * per-job signatures alone -- no simulation -- and only the top-K
 * predictions plus the candidates whose prediction uncertainty
 * exceeds the model's stored threshold are detail-profiled on forks.
 * The shortlist itself is samplekShortlist(), which BatchExperiment's
 * screened sample phase shares; this file also builds the open-mode
 * screen used by the single-machine open system and every cluster
 * node.
 */

#ifndef SOS_SOS_MODEL_SCREEN_HH
#define SOS_SOS_MODEL_SCREEN_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "model/model.hh"
#include "sos/open_backend.hh"

namespace sos {

/**
 * The samplek shortlist: the @p top_k best-predicted candidates (ties
 * in prediction break toward the lower index, so the screen is
 * deterministic) plus every candidate already set in @p keep -- the
 * uncertain ones. Returns the kept indices, strictly increasing.
 */
std::vector<std::size_t>
samplekShortlist(const std::vector<double> &predicted,
                 std::vector<bool> keep, int top_k);

/**
 * A screen keeping the @p top_k best-predicted candidates plus every
 * candidate above @p model's uncertainty threshold. Candidates the
 * model cannot score (no non-empty tuples) are always kept.
 */
std::function<std::vector<std::size_t>(
    const std::vector<OpenCandidate> &, const std::vector<Job *> &)>
makeModelScreen(std::shared_ptr<const model::WsModel> ws_model,
                int top_k);

/**
 * Convenience overload: load the model from @p path first. Fatal on a
 * malformed or missing model file (the caller asked for screening; a
 * silently disabled screen would misreport what ran).
 */
std::function<std::vector<std::size_t>(
    const std::vector<OpenCandidate> &, const std::vector<Job *> &)>
makeModelScreen(const std::string &path, int top_k);

} // namespace sos

#endif // SOS_SOS_MODEL_SCREEN_HH
