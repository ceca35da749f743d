#include "sampling.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "stats/stats.hh"

namespace sos {

namespace {

/** Relaxed add: totals are sums, order never matters. */
void
add(std::atomic<std::uint64_t> &counter, std::uint64_t v)
{
    counter.fetch_add(v, std::memory_order_relaxed);
}

} // namespace

SamplingTally &
SamplingTally::operator+=(const SamplingTally &other)
{
    periods += other.periods;
    fastForwardCycles += other.fastForwardCycles;
    detailedCycles += other.detailedCycles;
    measureWindows += other.measureWindows;
    windowRetired += other.windowRetired;
    windowRetiredSq += other.windowRetiredSq;
    return *this;
}

void
SamplingStats::reset()
{
    periods.store(0, std::memory_order_relaxed);
    fastForwardCycles.store(0, std::memory_order_relaxed);
    detailedCycles.store(0, std::memory_order_relaxed);
    measureWindows.store(0, std::memory_order_relaxed);
    windowRetired.store(0, std::memory_order_relaxed);
    windowRetiredSq.store(0, std::memory_order_relaxed);
}

SamplingStats &
samplingStats()
{
    static SamplingStats stats;
    return stats;
}

void
resetSamplingStats()
{
    samplingStats().reset();
}

void
recordSampling(const SamplingTally &tally)
{
    SamplingStats &s = samplingStats();
    add(s.periods, tally.periods);
    add(s.fastForwardCycles, tally.fastForwardCycles);
    add(s.detailedCycles, tally.detailedCycles);
    add(s.measureWindows, tally.measureWindows);
    add(s.windowRetired, tally.windowRetired);
    add(s.windowRetiredSq, tally.windowRetiredSq);
}

void
publishSamplingStats(const stats::Group &group,
                     const SampleWindows &sample)
{
    const SamplingStats &s = samplingStats();
    const std::uint64_t periods =
        s.periods.load(std::memory_order_relaxed);
    const std::uint64_t ff =
        s.fastForwardCycles.load(std::memory_order_relaxed);
    const std::uint64_t detailed =
        s.detailedCycles.load(std::memory_order_relaxed);
    const std::uint64_t windows =
        s.measureWindows.load(std::memory_order_relaxed);
    const std::uint64_t retired =
        s.windowRetired.load(std::memory_order_relaxed);
    const std::uint64_t retired_sq =
        s.windowRetiredSq.load(std::memory_order_relaxed);

    const stats::Group config = group.group("config");
    config.scalar("fast_forward", "U window (simulated cycles)") =
        sample.fastForward;
    config.scalar("warm", "W window (simulated cycles)") = sample.warm;
    config.scalar("measure", "M window (simulated cycles)") =
        sample.measure;

    group.scalar("periods", "fast-forward windows run") = periods;
    group.scalar("fast_forward_cycles",
                 "cycles executed functionally") = ff;
    group.scalar("detailed_cycles", "cycles executed in detail") =
        detailed;
    group.scalar("measure_windows",
                 "full-length measurement windows") = windows;

    const stats::Group error = group.group("error");
    error.value("detailed_fraction",
                "share of cycles simulated in detail") =
        ff + detailed > 0
            ? static_cast<double>(detailed) /
                  static_cast<double>(ff + detailed)
            : 1.0;
    // Coefficient of variation of retired uops (equivalently IPC --
    // the window length is fixed) across full measurement windows:
    // the within-run estimate of the error the extrapolation commits.
    double cv = 0.0;
    if (windows > 1 && retired > 0) {
        const double n = static_cast<double>(windows);
        const double mean = static_cast<double>(retired) / n;
        const double var = std::max(
            0.0, static_cast<double>(retired_sq) / n - mean * mean);
        cv = std::sqrt(var) / mean;
    }
    error.value("ipc_cv",
                "IPC coefficient of variation across measurement "
                "windows") = cv;
}

void
SamplingController::run(std::uint64_t cycles, PerfCounters &counters,
                        SamplingTally &tally)
{
    if (!sample_.enabled()) {
        core_.run(cycles, counters);
        return;
    }

    // Accumulate locally: the conflict extrapolation below must scale
    // only this interval's conflict cycles, not the caller's history.
    PerfCounters d;
    FunctionalExecutor::Rates rates{};
    std::uint64_t remaining = cycles;
    std::uint64_t detailed_total = 0;
    std::uint64_t fast_total = 0;
    while (remaining > 0) {
        const std::uint64_t w = std::min(sample_.warm, remaining);
        if (w > 0) {
            core_.run(w, d);
            remaining -= w;
            detailed_total += w;
        }
        if (remaining == 0)
            break;

        const std::uint64_t m = std::min(sample_.measure, remaining);
        PerfCounters mc;
        core_.run(m, mc);
        remaining -= m;
        detailed_total += m;
        for (std::size_t slot = 0; slot < MaxContexts; ++slot) {
            rates[slot] = static_cast<double>(mc.slotRetired[slot]) /
                          static_cast<double>(m);
        }
        if (m == sample_.measure) {
            ++tally.measureWindows;
            tally.windowRetired += mc.retired;
            tally.windowRetiredSq += mc.retired * mc.retired;
        }
        d += mc;
        if (remaining == 0)
            break;

        const std::uint64_t u = std::min(sample_.fastForward, remaining);
        core_.drainInFlight(d);
        fx_.run(u, rates, d);
        remaining -= u;
        fast_total += u;
        ++tally.periods;
    }

    if (fast_total > 0 && detailed_total > 0) {
        // Conflict counters increment at most once per detailed cycle;
        // extrapolate them over the fast-forwarded span by the cycle
        // ratio (integer math; counts are far below overflow range).
        const auto scale = [&](std::uint64_t &conf) {
            conf = conf * cycles / detailed_total;
        };
        scale(d.confIntQueue);
        scale(d.confFpQueue);
        scale(d.confIntRegs);
        scale(d.confFpRegs);
        scale(d.confRob);
        scale(d.confIntUnits);
        scale(d.confFpUnits);
        scale(d.confLsPorts);
    }
    tally.detailedCycles += detailed_total;
    tally.fastForwardCycles += fast_total;
    counters += d;
}

} // namespace sos
