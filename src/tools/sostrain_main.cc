/**
 * @file
 * sostrain: fit a WS model from a JSONL decision trace.
 *
 *   sostrain TRACE --model-out FILE [--report-out FILE]
 *            [--kind linear|tree] [--holdout N] [--depth D]
 *            [--min-leaf N] [--ridge X]
 *
 * TRACE is a decision trace written by the batch drivers (--trace /
 * SOS_TRACE): `sample_candidate` events carry the composed feat_*
 * vectors, `symbios_result` events the realized weighted speedups.
 * sostrain joins the two, fits the requested model on the training
 * split (every Nth row held out, default 5), writes the model file
 * (loadable via --model / SOS_MODEL), and reports train/held-out MAE
 * and Spearman rank correlation plus a per-mix comparison of the
 * model's pick against the paper predictors' recorded votes. The
 * report is a single "sos.train-report" JSON object; CI gates on its
 * held-out rank correlation.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "model/model.hh"
#include "model/trainer.hh"
#include "sim/config_env.hh"
#include "stats/json.hh"
#include "stats/trace_reader.hh"

namespace {

using namespace sos;

struct Options
{
    std::string trace;
    std::string modelOut;
    std::string reportOut;
    std::string kind = "linear";
    int holdout = 5;
    model::FitOptions fit;
};

Options
parseArgs(int argc, char **argv)
{
    Options options;
    parseFlags(
        "sostrain",
        {Flag::into("", "TRACE", "JSONL decision trace to learn from",
                    options.trace),
         Flag::into("--model-out", "FILE", "write the fitted model here",
                    options.modelOut),
         Flag::into("--report-out", "FILE",
                    "write the sos.train-report here (default stdout)",
                    options.reportOut),
         Flag::into("--kind", "K", "model kind: linear (default), tree",
                    options.kind),
         Flag::into("--holdout", "N",
                    "hold out every Nth row (default 5; 0 or 1 = none)",
                    options.holdout),
         Flag::into("--depth", "D", "tree split depth cap (default 4)",
                    options.fit.maxDepth),
         Flag::into("--min-leaf", "N",
                    "tree minimum rows per leaf (default 3)",
                    options.fit.minLeaf),
         Flag::into("--ridge", "X",
                    "linear per-row ridge strength (default 0.001)",
                    options.fit.ridge),
         Flag::into("--contrast", "X",
                    "within-mix contrast amplification (default 1)",
                    options.fit.contrast)},
        argc, argv);
    if (options.trace.empty())
        fatal("sostrain needs a trace file (see sostrain --help)");
    if (options.modelOut.empty())
        fatal("sostrain needs --model-out FILE");
    if (options.kind != "linear" && options.kind != "tree")
        fatal("--kind must be 'linear' or 'tree', got '", options.kind,
              "'");
    if (options.holdout < 0)
        fatal("--holdout must be >= 0");
    return options;
}

/** Realized WS of the model's argmax pick, per experiment. */
struct MixEval
{
    std::string experiment;
    int modelPick = 0;
    double modelWs = 0.0;
    double bestWs = 0.0;
    double avgWs = 0.0;
    std::string bestPredictor;
    double bestPredictorWs = 0.0;
    bool hasVotes = false;
};

std::vector<MixEval>
evaluateMixes(const model::WsModel &ws_model,
              const std::vector<model::TrainRow> &rows,
              const std::vector<stats::TraceEvent> &events)
{
    // Best recorded paper-predictor vote per experiment ("learned" is
    // not in makeAllPredictors(), so votes are all hand-tuned ones).
    std::map<std::string, std::pair<std::string, double>> best_vote;
    for (const stats::TraceEvent &event : events) {
        if (event.type != "predictor_vote")
            continue;
        const std::string experiment = event.text("experiment");
        const std::string predictor = event.text("predictor");
        const double ws = event.number("ws");
        const auto hit = best_vote.find(experiment);
        if (hit == best_vote.end() || ws > hit->second.second)
            best_vote[experiment] = {predictor, ws};
    }

    std::vector<MixEval> evals;
    std::map<std::string, std::vector<const model::TrainRow *>> groups;
    std::vector<std::string> order;
    for (const model::TrainRow &row : rows) {
        if (groups.find(row.experiment) == groups.end())
            order.push_back(row.experiment);
        groups[row.experiment].push_back(&row);
    }
    for (const std::string &experiment : order) {
        const std::vector<const model::TrainRow *> &group =
            groups[experiment];
        MixEval eval;
        eval.experiment = experiment;
        double best_predicted = 0.0;
        double ws_total = 0.0;
        for (std::size_t i = 0; i < group.size(); ++i) {
            const model::TrainRow &row = *group[i];
            const double predicted = ws_model.predict(row.features);
            if (i == 0 || predicted > best_predicted) {
                best_predicted = predicted;
                eval.modelPick = row.index;
                eval.modelWs = row.ws;
            }
            eval.bestWs = i == 0 ? row.ws : std::max(eval.bestWs, row.ws);
            ws_total += row.ws;
        }
        eval.avgWs = ws_total / static_cast<double>(group.size());
        const auto vote = best_vote.find(experiment);
        if (vote != best_vote.end()) {
            eval.hasVotes = true;
            eval.bestPredictor = vote->second.first;
            eval.bestPredictorWs = vote->second.second;
        }
        evals.push_back(std::move(eval));
    }
    return evals;
}

void
writeReport(const Options &options, const model::WsModel &ws_model,
            const model::Dataset &dataset,
            const std::vector<model::TrainRow> &train,
            const std::vector<model::TrainRow> &holdout,
            const std::vector<MixEval> &evals)
{
    std::string out;
    stats::JsonWriter json(&out);
    json.beginObject();
    json.key("schema");
    json.string("sos.train-report");
    json.key("version");
    json.number(1);
    json.key("trace");
    json.string(options.trace);
    json.key("model_file");
    json.string(options.modelOut);
    json.key("kind");
    json.string(ws_model.kind());
    json.key("features_version");
    json.number(model::kFeatureSchemaVersion);
    json.key("rows");
    json.number(static_cast<std::uint64_t>(dataset.rows.size()));
    json.key("train_rows");
    json.number(static_cast<std::uint64_t>(train.size()));
    json.key("holdout_rows");
    json.number(static_cast<std::uint64_t>(holdout.size()));
    json.key("skipped_no_features");
    json.number(dataset.skippedNoFeatures);
    json.key("skipped_no_result");
    json.number(dataset.skippedNoResult);
    json.key("train_mae");
    json.number(model::meanAbsoluteError(ws_model, train));
    json.key("train_rank_correlation");
    json.number(model::rankCorrelation(ws_model, train));
    json.key("holdout_mae");
    json.number(model::meanAbsoluteError(ws_model, holdout));
    json.key("holdout_rank_correlation");
    json.number(model::rankCorrelation(ws_model, holdout));
    json.key("uncertainty_threshold");
    json.number(ws_model.uncertaintyThreshold());

    int at_least_best = 0;
    int with_votes = 0;
    json.key("mixes");
    json.beginArray();
    for (const MixEval &eval : evals) {
        json.beginObject();
        json.key("experiment");
        json.string(eval.experiment);
        json.key("model_pick");
        json.number(eval.modelPick);
        json.key("model_ws");
        json.number(eval.modelWs);
        json.key("best_ws");
        json.number(eval.bestWs);
        json.key("avg_ws");
        json.number(eval.avgWs);
        if (eval.hasVotes) {
            json.key("best_predictor");
            json.string(eval.bestPredictor);
            json.key("best_predictor_ws");
            json.number(eval.bestPredictorWs);
            ++with_votes;
            // Float-equality is fine: equal picks yield the same
            // recorded double.
            if (eval.modelWs >= eval.bestPredictorWs)
                ++at_least_best;
        }
        json.endObject();
    }
    json.endArray();
    json.key("mixes_with_votes");
    json.number(with_votes);
    json.key("mixes_model_at_least_best");
    json.number(at_least_best);
    json.endObject();
    out += "\n";

    if (options.reportOut.empty()) {
        std::fputs(out.c_str(), stdout);
        return;
    }
    std::ofstream file(options.reportOut);
    if (!file)
        fatal("cannot write report '", options.reportOut, "'");
    file << out;
    if (!file.good())
        fatal("failed writing report '", options.reportOut, "'");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseArgs(argc, argv);

    std::vector<stats::TraceEvent> events;
    try {
        events = stats::readTraceFile(options.trace);
    } catch (const stats::TraceReadError &error) {
        fatal(error.what());
    }

    model::Dataset dataset;
    try {
        dataset = model::datasetFromTrace(events);
    } catch (const model::ModelError &error) {
        fatal(error.what());
    }
    if (dataset.rows.empty())
        fatal("trace '", options.trace,
              "' holds no joinable sample_candidate/symbios_result "
              "pairs (run a batch driver with --trace)");

    std::vector<model::TrainRow> train;
    std::vector<model::TrainRow> holdout;
    model::splitDataset(dataset.rows, options.holdout, train, holdout);
    if (train.empty())
        fatal("the holdout split left no training rows");

    std::unique_ptr<model::WsModel> ws_model;
    if (options.kind == "linear")
        ws_model = model::fitLinearModel(dataset.featureNames, train,
                                         options.fit);
    else
        ws_model = model::fitRegressionTree(dataset.featureNames,
                                            train, options.fit);

    try {
        ws_model->save(options.modelOut);
    } catch (const model::ModelError &error) {
        fatal(error.what());
    }

    const std::vector<MixEval> evals =
        evaluateMixes(*ws_model, dataset.rows, events);
    writeReport(options, *ws_model, dataset, train, holdout, evals);

    std::fprintf(
        stderr,
        "sostrain: %s model on %zu rows (%zu held out), "
        "holdout MAE %.4f, holdout rank corr %.3f -> %s\n",
        ws_model->kind().c_str(), dataset.rows.size(), holdout.size(),
        model::meanAbsoluteError(*ws_model, holdout),
        model::rankCorrelation(*ws_model, holdout),
        options.modelOut.c_str());
    return 0;
}
