/**
 * @file
 * Hierarchical statistics registry (gem5-style, much smaller).
 *
 * Every measurable quantity in the simulator registers under a dotted
 * path ("core0.mem.l1d.hits", "sweep.candidate3.ws") in a Registry.
 * Sinks then walk the registry in sorted path order and render the
 * same values as aligned text, a JSON run manifest, or both -- one
 * source of numbers for every output format.
 *
 * Stats are values: a publisher assigns each one once, after the
 * phases it reports have completed, so a registry owns everything it
 * renders and outlives nothing it was built from. Stats never sit on
 * the simulator's fast paths either: SmtCore::run and friends keep
 * incrementing plain struct fields, which are copied in only when a
 * run publishes.
 *
 * Registration errors (duplicate paths, a path nested under an
 * existing leaf, malformed segments) throw std::invalid_argument:
 * they are programming errors in experiment wiring, and throwing --
 * rather than fatal() -- keeps them testable.
 */

#ifndef SOS_STATS_STATS_HH
#define SOS_STATS_STATS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace sos::stats {

class JsonWriter;
class Registry;

/**
 * One registered statistic, of one of six kinds: Scalar (unsigned
 * counter), Value (floating-point result), Distribution
 * (count/mean/stddev/min/max summary), Quantile (streaming
 * p50/p95/p99), Vector (ordered, optionally named series) or Info
 * (string metadata).
 */
class Stat
{
  public:
    Stat(std::string path, std::string desc);
    virtual ~Stat() = default;

    Stat(const Stat &) = delete;
    Stat &operator=(const Stat &) = delete;

    const std::string &path() const { return path_; }
    const std::string &desc() const { return desc_; }

    /** Emit this stat's value into an open JSON value position. */
    virtual void writeJson(JsonWriter &json) const = 0;

    /** Render the value for the aligned-text sink. */
    virtual std::string renderText() const = 0;

  private:
    std::string path_;
    std::string desc_;
};

/** Unsigned counter. */
class Scalar : public Stat
{
  public:
    using Stat::Stat;

    Scalar &
    operator=(std::uint64_t v)
    {
        own_ = v;
        return *this;
    }

    Scalar &
    operator+=(std::uint64_t v)
    {
        own_ += v;
        return *this;
    }

    std::uint64_t value() const { return own_; }

    void writeJson(JsonWriter &json) const override;
    std::string renderText() const override;

  private:
    std::uint64_t own_ = 0;
};

/** Floating-point result (a WS, a percentage, a mean). */
class Value : public Stat
{
  public:
    using Stat::Stat;

    Value &
    operator=(double v)
    {
        own_ = v;
        return *this;
    }

    double value() const { return own_; }

    void writeJson(JsonWriter &json) const override;
    std::string renderText() const override;

  private:
    double own_ = 0.0;
};

/** Sample summary: count, mean, stddev (population), min, max. */
class Distribution : public Stat
{
  public:
    using Stat::Stat;

    void sample(double x);

    /** Convenience: sample every element. */
    void
    samples(const std::vector<double> &xs)
    {
        for (const double x : xs)
            sample(x);
    }

    std::size_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double stddev() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

    void writeJson(JsonWriter &json) const override;
    std::string renderText() const override;

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Streaming quantile estimator over non-negative samples.
 *
 * An HdrHistogram-style log-histogram: values below 2^kSubBits land in
 * exact unit-width buckets, larger values in 2^kSubBits sub-buckets
 * per power of two, so every bucket's width is at most 1/2^kSubBits of
 * its value. Memory is a fixed ~15 KiB regardless of sample count --
 * the property that lets million-job cluster runs record response-time
 * percentiles -- and quantile() is exact to within one bucket
 * (relative error <= 2^-kSubBits). Bucket indexing is pure integer
 * arithmetic, so accumulation order and host libm cannot perturb the
 * rendered percentiles; count/mean/min/max are tracked exactly.
 */
class Quantile : public Stat
{
  public:
    /** Sub-bucket resolution: 2^5 buckets per octave, ~3.1% error. */
    static constexpr int kSubBits = 5;

    Quantile(std::string path, std::string desc);

    /** Record one sample; negative values clamp to zero. */
    void sample(double x);

    /** Convenience: sample every element. */
    void
    samples(const std::vector<double> &xs)
    {
        for (const double x : xs)
            sample(x);
    }

    std::size_t count() const { return n_; }
    double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
    double min() const { return n_ ? static_cast<double>(min_) : 0.0; }
    double max() const { return n_ ? static_cast<double>(max_) : 0.0; }

    /**
     * The smallest bucket whose cumulative count covers rank
     * ceil(q * count), rendered as the bucket midpoint. 0 when empty.
     */
    double quantile(double q) const;

    void writeJson(JsonWriter &json) const override;
    std::string renderText() const override;

  private:
    static std::size_t bucketOf(std::uint64_t v);
    /** Midpoint of bucket @p index's value range. */
    static double bucketMid(std::size_t index);

    std::vector<std::uint64_t> buckets_;
    std::size_t n_ = 0;
    double sum_ = 0.0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

/** Ordered series of doubles, optionally with per-element names. */
class Vector : public Stat
{
  public:
    using Stat::Stat;

    Vector &push(double v);
    Vector &push(const std::string &name, double v);

    std::size_t size() const { return values_.size(); }
    const std::vector<double> &values() const { return values_; }

    void writeJson(JsonWriter &json) const override;
    std::string renderText() const override;

  private:
    std::vector<double> values_;
    std::vector<std::string> names_; ///< empty, or one per value
};

/** String metadata (schedule labels, workload names). */
class Info : public Stat
{
  public:
    using Stat::Stat;

    Info &
    operator=(std::string v)
    {
        value_ = std::move(v);
        return *this;
    }

    const std::string &value() const { return value_; }

    void writeJson(JsonWriter &json) const override;
    std::string renderText() const override;

  private:
    std::string value_;
};

/**
 * Make a string usable as one path segment: dots, whitespace and
 * control characters become '_'. Parentheses, commas and brackets
 * (as in "Jsb(6,3,3)" or "012_345") pass through.
 */
std::string sanitizeSegment(const std::string &raw);

/** Owns every Stat of one run, keyed by dotted path. */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** @name Typed registration (throws on path conflicts) @{ */
    Scalar &scalar(const std::string &path, std::string desc = "");
    Value &value(const std::string &path, std::string desc = "");
    Distribution &distribution(const std::string &path,
                               std::string desc = "");
    Quantile &quantile(const std::string &path, std::string desc = "");
    Vector &vector(const std::string &path, std::string desc = "");
    Info &info(const std::string &path, std::string desc = "");
    /** @} */

    /** Look up a stat by exact path; nullptr when absent. */
    const Stat *find(const std::string &path) const;

    /** Every stat in sorted (lexicographic) path order. */
    std::vector<const Stat *> sorted() const;

    std::size_t size() const { return stats_.size(); }
    bool empty() const { return stats_.empty(); }

  private:
    /** Validate @p path and reject leaf/subtree conflicts. */
    void checkInsertable(const std::string &path) const;

    template <typename StatT, typename... Args>
    StatT &add(const std::string &path, Args &&...args);

    std::map<std::string, std::unique_ptr<Stat>> stats_;
};

/**
 * A registration handle carrying a path prefix, so subsystems can
 * register relative names ("hits") under a caller-chosen subtree
 * ("core0.mem.l1d"). Cheap to copy; the Registry must outlive it.
 */
class Group
{
  public:
    /** Root group: no prefix, paths register verbatim. */
    explicit Group(Registry &registry) : registry_(&registry) {}

    Group(Registry &registry, std::string prefix)
        : registry_(&registry), prefix_(std::move(prefix))
    {
    }

    /** Child group: this group's prefix plus one (sanitized) segment. */
    Group group(const std::string &name) const;

    Registry &registry() const { return *registry_; }
    const std::string &prefix() const { return prefix_; }

    /** @name Registration under the prefix @{ */
    Scalar &scalar(const std::string &name, std::string desc = "") const;
    Value &value(const std::string &name, std::string desc = "") const;
    Distribution &distribution(const std::string &name,
                               std::string desc = "") const;
    Quantile &quantile(const std::string &name,
                       std::string desc = "") const;
    Vector &vector(const std::string &name, std::string desc = "") const;
    Info &info(const std::string &name, std::string desc = "") const;
    /** @} */

  private:
    std::string join(const std::string &name) const;

    Registry *registry_;
    std::string prefix_;
};

/**
 * Render every stat as aligned "path  value  # desc" text lines
 * (the human-readable registry dump).
 */
std::string renderText(const Registry &registry);

/**
 * Emit the registry as a nested JSON object: dotted paths become
 * object nesting, leaves render per stat kind. Appends one JSON value
 * (an object) at the writer's current position.
 */
void writeJsonTree(const Registry &registry, JsonWriter &json);

} // namespace sos::stats

#endif // SOS_STATS_STATS_HH
