#include "cluster/arrival.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "metrics/calibrator.hh"
#include "sim/experiment_defs.hh"

namespace sos {

namespace {

constexpr double kTwoPi = 6.283185307179586;

/** Draw one class index by weight (classes are few; linear scan). */
int
drawClass(Rng &rng, const std::vector<ArrivalClass> &classes,
          double total_weight)
{
    const double u = rng.uniform() * total_weight;
    double cumulative = 0.0;
    for (std::size_t c = 0; c < classes.size(); ++c) {
        cumulative += classes[c].weight;
        if (u < cumulative)
            return static_cast<int>(c);
    }
    return static_cast<int>(classes.size()) - 1;
}

/**
 * Stateful interarrival draw: each process advances its own notion of
 * "current rate" and returns the gap to the next arrival.
 */
class ArrivalProcess
{
  public:
    virtual ~ArrivalProcess() = default;
    virtual double nextGap(Rng &rng, double clock) = 0;
};

class PoissonProcess : public ArrivalProcess
{
  public:
    explicit PoissonProcess(double mean) : mean_(mean) {}

    double
    nextGap(Rng &rng, double) override
    {
        return rng.exponential(mean_);
    }

  private:
    double mean_;
};

/**
 * Two-state MMPP: a burst state arriving burstRateFactor times faster
 * than the lull state, with exponentially distributed sojourns sized
 * so the long-run mean interarrival matches the spec (bursty traffic,
 * same offered load).
 */
class MmppProcess : public ArrivalProcess
{
  public:
    MmppProcess(const ArrivalSpec &spec)
        : burstFraction_(std::clamp(spec.burstFraction, 0.01, 0.99))
    {
        // Solve rate_burst/rate_lull = factor with the time-weighted
        // mean rate equal to 1/mean: the burst mean interarrival is
        // mean/scale_b, the lull mean/scale_l.
        const double factor = std::max(1.0, spec.burstRateFactor);
        const double mean_rate = 1.0 / spec.meanInterarrivalCycles;
        const double lull_rate =
            mean_rate /
            (1.0 + burstFraction_ * (factor - 1.0));
        burstMean_ = 1.0 / (lull_rate * factor);
        lullMean_ = 1.0 / lull_rate;
        burstSojourn_ = spec.burstLengthArrivals *
                        spec.meanInterarrivalCycles;
        lullSojourn_ = burstSojourn_ * (1.0 - burstFraction_) /
                       burstFraction_;
    }

    double
    nextGap(Rng &rng, double clock) override
    {
        if (clock >= stateEnd_) {
            // Enter the other state for a fresh exponential sojourn.
            inBurst_ = !inBurst_;
            stateEnd_ = clock + rng.exponential(
                                    inBurst_ ? burstSojourn_
                                             : lullSojourn_);
        }
        return rng.exponential(inBurst_ ? burstMean_ : lullMean_);
    }

  private:
    double burstFraction_;
    double burstMean_ = 0.0;
    double lullMean_ = 0.0;
    double burstSojourn_ = 0.0;
    double lullSojourn_ = 0.0;
    bool inBurst_ = false;
    double stateEnd_ = 0.0;
};

/**
 * Sinusoidal rate modulation: the instantaneous rate swings by
 * +/- amplitude around the mean over one period (day/night load).
 */
class DiurnalProcess : public ArrivalProcess
{
  public:
    explicit DiurnalProcess(const ArrivalSpec &spec)
        : mean_(spec.meanInterarrivalCycles),
          amplitude_(std::clamp(spec.diurnalAmplitude, 0.0, 0.95)),
          period_(std::max(1.0, spec.diurnalPeriodArrivals) *
                  spec.meanInterarrivalCycles)
    {
    }

    double
    nextGap(Rng &rng, double clock) override
    {
        const double rate_scale =
            1.0 + amplitude_ * std::sin(kTwoPi * clock / period_);
        return rng.exponential(mean_ / rate_scale);
    }

  private:
    double mean_;
    double amplitude_;
    double period_;
};

std::unique_ptr<ArrivalProcess>
makeProcess(const ArrivalSpec &spec)
{
    if (spec.process == "poisson") {
        return std::make_unique<PoissonProcess>(
            spec.meanInterarrivalCycles);
    }
    if (spec.process == "mmpp")
        return std::make_unique<MmppProcess>(spec);
    if (spec.process == "diurnal")
        return std::make_unique<DiurnalProcess>(spec);
    std::string known;
    for (const std::string &name : arrivalProcessNames())
        known += (known.empty() ? "" : ", ") + name;
    fatal("unknown arrival process '", spec.process, "' (known: ",
          known, ")");
}

} // namespace

ArrivalClass
defaultArrivalClass()
{
    return ArrivalClass{"all", 1.0, 1.0};
}

const std::vector<std::string> &
arrivalProcessNames()
{
    static const std::vector<std::string> names = {"poisson", "mmpp",
                                                   "diurnal"};
    return names;
}

std::vector<ArrivalClass>
effectiveClasses(const ArrivalSpec &spec)
{
    if (spec.classes.empty())
        return {defaultArrivalClass()};
    return spec.classes;
}

std::vector<ClusterArrival>
makeClusterArrivals(const SimConfig &sim, const ArrivalSpec &spec)
{
    SOS_ASSERT(spec.numJobs > 0);
    SOS_ASSERT(spec.meanInterarrivalCycles > 0.0 &&
                   spec.meanJobCycles > 0.0,
               "arrival spec needs positive means");

    const std::vector<ArrivalClass> classes = effectiveClasses(spec);
    double total_weight = 0.0;
    for (const ArrivalClass &klass : classes) {
        SOS_ASSERT(klass.weight > 0.0 && klass.sizeFactor > 0.0,
                   "arrival classes need positive weight and size");
        total_weight += klass.weight;
    }

    Rng rng(spec.seed ^ 0xc1a57e7ceULL);
    const std::unique_ptr<ArrivalProcess> process = makeProcess(spec);
    Calibrator calibrator(sim.referenceCoreFor(spec.level),
                          sim.referenceMem(), sim.calibWarmupCycles,
                          sim.calibMeasureCycles);
    const auto &workloads = openSystemWorkloads();
    ThreadPool pool(resolveJobs(sim.jobs));
    const std::vector<double> solo =
        calibrator.soloIpcs(soloKeys(workloads), pool);

    std::vector<ClusterArrival> trace;
    trace.reserve(static_cast<std::size_t>(spec.numJobs));
    double clock = 0.0;
    for (int j = 0; j < spec.numJobs; ++j) {
        clock += process->nextGap(rng, clock);
        ClusterArrival arrival;
        arrival.arrivalCycle = static_cast<std::uint64_t>(clock);
        const std::size_t w = rng.below(workloads.size());
        arrival.workload = workloads[w];
        arrival.klass = drawClass(rng, classes, total_weight);
        // Duration in solo cycles around the class mean, clamped like
        // the single-machine trace so no job degenerates.
        const double mean =
            spec.meanJobCycles *
            classes[static_cast<std::size_t>(arrival.klass)].sizeFactor;
        double duration = rng.exponential(mean);
        duration = std::clamp(duration, mean * 0.05, mean * 6.0);
        arrival.sizeInstructions = std::max<std::uint64_t>(
            1000, static_cast<std::uint64_t>(duration * solo[w]));
        trace.push_back(std::move(arrival));
    }
    return trace;
}

} // namespace sos
