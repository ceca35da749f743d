#include "predictor.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "core/learned_predictor.hh"
#include "model/features.hh"

namespace sos {

using model::ProfileSignature;
using model::profileSignature;

int
Predictor::best(const std::vector<ScheduleProfile> &profiles) const
{
    SOS_ASSERT(!profiles.empty(), "cannot rank an empty sample");
    const std::vector<double> scores = score(profiles);
    SOS_ASSERT(scores.size() == profiles.size());
    int best_index = 0;
    for (std::size_t i = 1; i < scores.size(); ++i) {
        if (scores[i] > scores[static_cast<std::size_t>(best_index)])
            best_index = static_cast<int>(i);
    }
    return best_index;
}

namespace {

/** Guard against division by an exactly-zero best conflict count. */
constexpr double confFloor = 1e-6;

/** Floor for the Balance denominator (a perfectly smooth sample). */
constexpr double balanceFloor = 0.01;

/**
 * A hand-tuned predictor defined on one field of the shared
 * ProfileSignature (model/features.hh). Every paper predictor is one
 * of these: extract the signature, read one normalized field, maybe
 * negate it ("lower is better" resources).
 */
class SignatureFieldPredictor : public Predictor
{
  public:
    using Field = double (*)(const ProfileSignature &);

    SignatureFieldPredictor(std::string name, Field field)
        : name_(std::move(name)), field_(field)
    {
    }

    std::string name() const override { return name_; }

    std::vector<double>
    score(const std::vector<ScheduleProfile> &profiles) const override
    {
        std::vector<double> out;
        out.reserve(profiles.size());
        for (const auto &p : profiles)
            out.push_back(field_(profileSignature(p)));
        return out;
    }

  private:
    std::string name_;
    Field field_;
};

std::unique_ptr<Predictor>
fieldPredictor(std::string name, SignatureFieldPredictor::Field field)
{
    return std::make_unique<SignatureFieldPredictor>(std::move(name), field);
}

/**
 * The paper's experimental fit:
 *
 *   0.9 / min(FQ/lowFQ, FP/lowFP, Sum2/lowSum2)  +  0.1 / Balance
 *
 * smoothness-dominated with weight on the critical FP resources (the
 * typeset formula in the paper is ambiguous; DESIGN.md records this
 * literal fractional reading). Note the asymmetry the original code
 * had and the goldens pin: the per-sample lows come from the raw
 * conflict percentages, while each schedule's own terms are floored
 * first (so its sum2 is the sum of the floored parts).
 */
class CompositePredictor : public Predictor
{
  public:
    std::string name() const override { return "Composite"; }

    std::vector<double>
    score(const std::vector<ScheduleProfile> &profiles) const override
    {
        std::vector<ProfileSignature> sigs;
        sigs.reserve(profiles.size());
        for (const auto &p : profiles)
            sigs.push_back(profileSignature(p));

        double low_fq = 1e300;
        double low_fp = 1e300;
        double low_sum2 = 1e300;
        for (const auto &sig : sigs) {
            low_fq = std::min(low_fq, sig.fqConflictPct);
            low_fp = std::min(low_fp, sig.fpConflictPct);
            low_sum2 = std::min(low_sum2, sig.sum2ConflictPct);
        }
        low_fq = std::max(low_fq, confFloor);
        low_fp = std::max(low_fp, confFloor);
        low_sum2 = std::max(low_sum2, confFloor);

        std::vector<double> out;
        out.reserve(sigs.size());
        for (const auto &sig : sigs) {
            const double fq = std::max(sig.fqConflictPct, confFloor);
            const double fp = std::max(sig.fpConflictPct, confFloor);
            const double sum2 = std::max(fq + fp, confFloor);
            const double ratio = std::min(
                {fq / low_fq, fp / low_fp, sum2 / low_sum2});
            const double balance = std::max(sig.balance, balanceFloor);
            out.push_back(0.9 / ratio + 0.1 / balance);
        }
        return out;
    }
};

/**
 * Score: one vote per base predictor for its top-ranked schedule;
 * ties broken by the summed min-max-normalized goodness across all
 * base predictors ("relative magnitude of goodness").
 */
class ScorePredictor : public Predictor
{
  public:
    ScorePredictor() : components_(makeBasePredictors()) {}

    std::string name() const override { return "Score"; }

    std::vector<double>
    score(const std::vector<ScheduleProfile> &profiles) const override
    {
        SOS_ASSERT(!profiles.empty());
        std::vector<double> votes(profiles.size(), 0.0);
        std::vector<double> magnitude(profiles.size(), 0.0);
        for (const auto &predictor : components_) {
            const std::vector<double> raw = predictor->score(profiles);
            const auto [mn_it, mx_it] =
                std::minmax_element(raw.begin(), raw.end());
            const double mn = *mn_it;
            const double span = *mx_it - mn;
            int best_index = 0;
            for (std::size_t i = 0; i < raw.size(); ++i) {
                if (raw[i] >
                    raw[static_cast<std::size_t>(best_index)]) {
                    best_index = static_cast<int>(i);
                }
                if (span > 0.0)
                    magnitude[i] += (raw[i] - mn) / span;
            }
            votes[static_cast<std::size_t>(best_index)] += 1.0;
        }
        // Fold normalized magnitude in below the quantum of one vote.
        const double tiebreak =
            0.5 / static_cast<double>(components_.size());
        for (std::size_t i = 0; i < votes.size(); ++i) {
            votes[i] += tiebreak * magnitude[i] /
                        static_cast<double>(components_.size());
        }
        return votes;
    }

  private:
    std::vector<std::unique_ptr<Predictor>> components_;
};

} // namespace

std::vector<std::unique_ptr<Predictor>>
makeBasePredictors()
{
    std::vector<std::unique_ptr<Predictor>> out;
    // High observed IPC in the sample predicts symbiosis.
    out.push_back(fieldPredictor(
        "IPC", [](const ProfileSignature &s) { return s.ipc; }));
    // Low total conflicts across all eight shared resources.
    out.push_back(fieldPredictor(
        "AllConf",
        [](const ProfileSignature &s) { return -s.allConflictPct; }));
    // High L1 data-cache hit rate.
    out.push_back(fieldPredictor(
        "Dcache", [](const ProfileSignature &s) { return s.l1dHitRate; }));
    // Low conflicts on the floating-point issue queue.
    out.push_back(fieldPredictor(
        "FQ", [](const ProfileSignature &s) { return -s.fqConflictPct; }));
    // Low conflicts on the floating-point units.
    out.push_back(fieldPredictor(
        "FP", [](const ProfileSignature &s) { return -s.fpConflictPct; }));
    // Low combined FP-queue + FP-unit conflicts.
    out.push_back(fieldPredictor(
        "Sum2",
        [](const ProfileSignature &s) { return -s.sum2ConflictPct; }));
    // A balanced FP/integer mix over the whole schedule, as in the
    // paper's Table 3 (whose Diversity column scores the segregated
    // schedule best -- which is why the paper finds the predictor
    // ineffective; see "SliceDiversity" for the repaired variant this
    // library adds as an extension).
    out.push_back(fieldPredictor(
        "Diversity",
        [](const ProfileSignature &s) { return -s.mixImbalance; }));
    // Low variation of IPC between consecutive timeslices.
    out.push_back(fieldPredictor(
        "Balance", [](const ProfileSignature &s) { return -s.balance; }));
    out.push_back(std::make_unique<CompositePredictor>());
    return out;
}

std::unique_ptr<Predictor>
makeScorePredictor()
{
    return std::make_unique<ScorePredictor>();
}

std::vector<std::unique_ptr<Predictor>>
makeAllPredictors()
{
    std::vector<std::unique_ptr<Predictor>> out = makeBasePredictors();
    out.push_back(makeScorePredictor());
    return out;
}

std::unique_ptr<Predictor>
makePredictor(const std::string &name, const std::string &model_path)
{
    // Extensions outside the paper's ten-predictor set.
    if (name == "SliceDiversity") {
        // Diversity evaluated per timeslice, so a schedule that
        // alternates an FP-only tuple with an integer-only tuple is
        // correctly penalized even though its aggregate mix looks
        // balanced.
        return fieldPredictor(
            "SliceDiversity",
            [](const ProfileSignature &s) { return -s.sliceDiversity; });
    }
    if (name == "learned")
        return std::make_unique<LearnedPredictor>(model_path);
    for (auto &predictor : makeAllPredictors()) {
        if (predictor->name() == name)
            return std::move(predictor);
    }
    std::string known;
    for (const std::string &key : predictorNames()) {
        if (!known.empty())
            known += ", ";
        known += key;
    }
    fatal("unknown predictor '", name, "' (known: ", known, ")");
}

const std::vector<std::string> &
predictorNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        out.push_back("SliceDiversity");
        for (const auto &predictor : makeAllPredictors())
            out.push_back(predictor->name());
        out.push_back("learned");
        return out;
    }();
    return names;
}

} // namespace sos
