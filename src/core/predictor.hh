/**
 * @file
 * Schedule-goodness predictors (the heart of SOS's symbios phase).
 *
 * After the sample phase has profiled a set of candidate schedules,
 * a Predictor ranks them; SOS then runs the top-ranked schedule for
 * the symbios phase. The paper evaluates nine predictors (Section 5)
 * plus Score, a majority vote over the others.
 */

#ifndef SOS_CORE_PREDICTOR_HH
#define SOS_CORE_PREDICTOR_HH

#include <memory>
#include <string>
#include <vector>

#include "core/schedule_profile.hh"

namespace sos {

/** Ranks sampled schedules; higher score = predicted better. */
class Predictor
{
  public:
    virtual ~Predictor() = default;

    /** Name as used in the paper's Table 3 / Figure 2. */
    virtual std::string name() const = 0;

    /**
     * Goodness score per profile (higher is better). Scores are only
     * comparable within one call: predictors like Composite normalize
     * against the best value observed across the sampled set.
     */
    virtual std::vector<double>
    score(const std::vector<ScheduleProfile> &profiles) const = 0;

    /** Index of the predicted-best profile (ties: lowest index). */
    int best(const std::vector<ScheduleProfile> &profiles) const;
};

/**
 * The paper's individual predictors, in Table 3 column order:
 * IPC, AllConf, Dcache, FQ, FP, Sum2, Diversity, Balance, Composite.
 */
std::vector<std::unique_ptr<Predictor>> makeBasePredictors();

/**
 * The Score predictor: each base predictor casts a vote for its best
 * schedule; most votes wins, with ties broken by the relative
 * magnitude of predicted goodness.
 */
std::unique_ptr<Predictor> makeScorePredictor();

/** All ten predictors, Score last. */
std::vector<std::unique_ptr<Predictor>> makeAllPredictors();

/**
 * Look up one predictor by its paper name; fatal() if unknown. Also
 * resolves "SliceDiversity", this library's per-timeslice repair of
 * the paper's (ineffective) aggregate Diversity predictor, and
 * "learned", which loads its model from @p model_path
 * (SimConfig::modelPath; empty = inert, see LearnedPredictor).
 */
std::unique_ptr<Predictor> makePredictor(const std::string &name,
                                         const std::string &model_path = "");

/** Names makePredictor() accepts, in lookup order. */
const std::vector<std::string> &predictorNames();

} // namespace sos

#endif // SOS_CORE_PREDICTOR_HH
