#include "sos/kernel.hh"

#include <algorithm>
#include <memory>

#include "common/logging.hh"
#include "cpu/sampling.hh"
#include "stats/stats.hh"
#include "stats/trace.hh"

namespace sos {

namespace {

using Phase = SosKernel::Phase;

bool
legalTransition(Phase from, Phase to)
{
    switch (from) {
      case Phase::Idle:
        return to == Phase::Sample || to == Phase::Symbios ||
               to == Phase::Done;
      case Phase::Sample:
        // Sample -> Sample: an arrival due at the phase boundary
        // supersedes a scheduled-but-not-yet-run sample window, just
        // as arrivals interrupted in-place sampling before the kernel.
        return to == Phase::Symbios || to == Phase::Sample;
      case Phase::Symbios:
        return to == Phase::Sample || to == Phase::Symbios ||
               to == Phase::Done;
      case Phase::Done:
        return false;
    }
    return false;
}

} // namespace

void
SosKernel::advance(Phase &phase, Phase next)
{
    SOS_ASSERT(legalTransition(phase, next),
               "illegal SOS phase transition");
    phase = next;
}

ScheduleProfile
SosKernel::sampleProfile(const Run &run, std::string label)
{
    ScheduleProfile profile;
    profile.label = std::move(label);
    profile.counters = run.run.total;
    profile.sliceIpc = run.run.sliceIpc;
    profile.sliceMixImbalance = run.run.sliceMixImbalance;
    profile.sampleWs = run.ws;
    profile.detailed = true;
    sampleCycles_ += run.run.cycles;
    recordSampling(run.run.sampling);
    return profile;
}

void
SosKernel::runSamplePhase(const std::vector<Run> &runs,
                          const std::vector<std::string> &labels)
{
    SOS_ASSERT(profiles_.empty(), "sample phase already ran");
    SOS_ASSERT(runs.size() == labels.size(), "one label per run");
    advance(phase_, Phase::Sample);

    for (std::size_t i = 0; i < runs.size(); ++i)
        profiles_.push_back(sampleProfile(runs[i], labels[i]));
}

void
SosKernel::runSamplePhaseScreened(
    const std::vector<Run> &runs,
    const std::vector<std::size_t> &shortlist,
    std::vector<ScheduleProfile> synthetic)
{
    SOS_ASSERT(profiles_.empty(), "sample phase already ran");
    SOS_ASSERT(!shortlist.empty(),
               "the samplek screen kept no candidate");
    SOS_ASSERT(shortlist.size() == runs.size(),
               "run/shortlist size mismatch");
    advance(phase_, Phase::Sample);

    profiles_ = std::move(synthetic);
    for (ScheduleProfile &profile : profiles_)
        profile.detailed = false;

    for (std::size_t i = 0; i < runs.size(); ++i) {
        const std::size_t full = shortlist[i];
        SOS_ASSERT(full < profiles_.size(),
                   "shortlist index out of range");
        SOS_ASSERT(i == 0 || shortlist[i - 1] < full,
                   "shortlist must be strictly increasing");
        profiles_[full] =
            sampleProfile(runs[i], std::move(profiles_[full].label));
    }
}

void
SosKernel::runSymbiosValidation(const std::vector<Run> &runs)
{
    SOS_ASSERT(!profiles_.empty(), "run the sample phase first");
    SOS_ASSERT(symbiosWs_.empty(), "symbios validation already ran");
    SOS_ASSERT(runs.size() == profiles_.size(),
               "symbios runs must cover every candidate");
    advance(phase_, Phase::Symbios);

    for (const Run &run : runs) {
        symbiosWs_.push_back(run.ws);
        recordSampling(run.run.sampling);
    }

    advance(phase_, Phase::Done);
}

double
SosKernel::bestWs() const
{
    SOS_ASSERT(!symbiosWs_.empty());
    return *std::max_element(symbiosWs_.begin(), symbiosWs_.end());
}

double
SosKernel::worstWs() const
{
    SOS_ASSERT(!symbiosWs_.empty());
    return *std::min_element(symbiosWs_.begin(), symbiosWs_.end());
}

double
SosKernel::averageWs() const
{
    SOS_ASSERT(!symbiosWs_.empty());
    double total = 0.0;
    for (double ws : symbiosWs_)
        total += ws;
    return total / static_cast<double>(symbiosWs_.size());
}

int
SosKernel::predictedIndex(const Predictor &predictor) const
{
    SOS_ASSERT(!profiles_.empty(), "run the sample phase first");
    // Under the samplek screen, only detailed profiles carry the
    // counters predictors read; score those and map the winner back
    // to its full candidate index.
    bool screened = false;
    for (const ScheduleProfile &profile : profiles_)
        screened = screened || !profile.detailed;
    if (!screened)
        return predictor.best(profiles_);

    std::vector<ScheduleProfile> detailed;
    std::vector<int> full_index;
    for (std::size_t i = 0; i < profiles_.size(); ++i) {
        if (!profiles_[i].detailed)
            continue;
        detailed.push_back(profiles_[i]);
        full_index.push_back(static_cast<int>(i));
    }
    SOS_ASSERT(!detailed.empty(), "no detailed profile to score");
    return full_index[static_cast<std::size_t>(
        predictor.best(detailed))];
}

double
SosKernel::wsOfPredictor(const Predictor &predictor) const
{
    SOS_ASSERT(!symbiosWs_.empty(), "run the symbios validation first");
    return symbiosWs_[static_cast<std::size_t>(
        predictedIndex(predictor))];
}

void
SosKernel::publishStats(const stats::Group &group) const
{
    group.scalar("sample_phase_cycles",
                 "simulated machine cycles spent profiling candidates")
        .bind(&sampleCycles_);

    for (std::size_t i = 0; i < profiles_.size(); ++i) {
        const ScheduleProfile &profile = profiles_[i];
        const stats::Group cand =
            group.group("candidate" + std::to_string(i));
        cand.info("schedule", "candidate schedule label") =
            profile.label;
        cand.value("sample_ws", "WS observed during the sample phase") =
            profile.sampleWs;
        cand.value("balance", "stddev of per-timeslice machine IPC") =
            profile.balance();
        cand.value("diversity",
                   "mean per-timeslice machine mix imbalance") =
            profile.diversity();
        if (i < symbiosWs_.size())
            cand.value("ws", "symbios-phase weighted speedup") =
                symbiosWs_[i];
        profile.counters.registerStats(cand.group("counters"));
    }

    if (!symbiosWs_.empty()) {
        const stats::Group summary = group.group("summary");
        summary.value("best_ws", "best symbios WS in the sample") =
            bestWs();
        summary.value("worst_ws", "worst symbios WS in the sample") =
            worstWs();
        summary.value("avg_ws",
                      "oblivious-scheduler expectation over the sample") =
            averageWs();
    }
}

void
SosKernel::recordSymbios(stats::EventTrace &trace,
                         const std::string &experiment,
                         const char *vote_event,
                         const char *result_event) const
{
    if (symbiosWs_.empty())
        return;
    for (const std::unique_ptr<Predictor> &predictor :
         makeAllPredictors()) {
        const auto pick =
            static_cast<std::size_t>(predictedIndex(*predictor));
        trace.event(vote_event)
            .field("experiment", experiment)
            .field("predictor", predictor->name())
            .field("pick", static_cast<int>(pick))
            .field("schedule", profiles_[pick].label)
            .field("ws", symbiosWs_[pick]);
    }
    for (std::size_t i = 0; i < symbiosWs_.size(); ++i) {
        trace.event(result_event)
            .field("experiment", experiment)
            .field("index", static_cast<std::uint64_t>(i))
            .field("schedule", profiles_[i].label)
            .field("ws", symbiosWs_[i]);
    }
}

} // namespace sos
