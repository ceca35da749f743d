#include "stats.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>

#include "stats/json.hh"

namespace sos::stats {

Stat::Stat(std::string path, std::string desc)
    : path_(std::move(path)), desc_(std::move(desc))
{
}

void
Scalar::writeJson(JsonWriter &json) const
{
    json.number(value());
}

std::string
Scalar::renderText() const
{
    return std::to_string(value());
}

void
Value::writeJson(JsonWriter &json) const
{
    json.number(value());
}

std::string
Value::renderText() const
{
    return formatDouble(value());
}

void
Distribution::sample(double x)
{
    // Welford, matching RunningStat's population convention.
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (n_ == 1) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
}

double
Distribution::stddev() const
{
    if (n_ < 2)
        return 0.0;
    return std::sqrt(m2_ / static_cast<double>(n_));
}

void
Distribution::writeJson(JsonWriter &json) const
{
    json.beginObject();
    json.key("count");
    json.number(static_cast<std::uint64_t>(n_));
    json.key("mean");
    json.number(mean());
    json.key("stddev");
    json.number(stddev());
    json.key("min");
    json.number(min());
    json.key("max");
    json.number(max());
    json.endObject();
}

std::string
Distribution::renderText() const
{
    return "n=" + std::to_string(n_) + " mean=" + formatDouble(mean()) +
           " sd=" + formatDouble(stddev()) + " min=" +
           formatDouble(min()) + " max=" + formatDouble(max());
}

Quantile::Quantile(std::string path, std::string desc)
    : Stat(std::move(path), std::move(desc)),
      // Unit buckets below 2^kSubBits, then 2^kSubBits sub-buckets for
      // each of the remaining (64 - kSubBits) octaves.
      buckets_((64 - kSubBits + 1) << kSubBits, 0)
{
}

std::size_t
Quantile::bucketOf(std::uint64_t v)
{
    if (v < (1ULL << kSubBits))
        return static_cast<std::size_t>(v);
    int msb = 0;
    for (std::uint64_t t = v; t >>= 1;)
        ++msb;
    const int shift = msb - kSubBits;
    const auto sub = static_cast<std::size_t>(
        (v >> shift) & ((1ULL << kSubBits) - 1));
    return (static_cast<std::size_t>(msb - kSubBits) << kSubBits) +
           (1ULL << kSubBits) + sub;
}

double
Quantile::bucketMid(std::size_t index)
{
    constexpr std::size_t sub_count = 1ULL << kSubBits;
    if (index < sub_count)
        return static_cast<double>(index); // unit buckets are exact
    const std::size_t octave = (index - sub_count) >> kSubBits;
    const std::size_t sub = (index - sub_count) & (sub_count - 1);
    const int shift = static_cast<int>(octave);
    const double lo = static_cast<double>((sub_count + sub)) *
                      static_cast<double>(1ULL << shift);
    const double width = static_cast<double>(1ULL << shift);
    return lo + width / 2.0;
}

void
Quantile::sample(double x)
{
    const double clamped = x < 0.0 ? 0.0 : x;
    // Quantize to an integer; response times and cycle counts (the
    // intended samples) already are.
    const double ceiling = 9.2e18; // < 2^63, keeps the cast defined
    const auto v = static_cast<std::uint64_t>(
        clamped < ceiling ? clamped : ceiling);
    ++buckets_[bucketOf(v)];
    ++n_;
    sum_ += static_cast<double>(v);
    if (n_ == 1) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
}

double
Quantile::quantile(double q) const
{
    if (n_ == 0)
        return 0.0;
    const double clamped = std::min(1.0, std::max(0.0, q));
    auto target = static_cast<std::uint64_t>(
        std::ceil(clamped * static_cast<double>(n_)));
    target = std::max<std::uint64_t>(1, target);
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
        cum += buckets_[b];
        if (cum >= target)
            return bucketMid(b);
    }
    return static_cast<double>(max_);
}

void
Quantile::writeJson(JsonWriter &json) const
{
    json.beginObject();
    json.key("count");
    json.number(static_cast<std::uint64_t>(n_));
    json.key("mean");
    json.number(mean());
    json.key("min");
    json.number(min());
    json.key("max");
    json.number(max());
    json.key("p50");
    json.number(quantile(0.50));
    json.key("p95");
    json.number(quantile(0.95));
    json.key("p99");
    json.number(quantile(0.99));
    json.endObject();
}

std::string
Quantile::renderText() const
{
    return "n=" + std::to_string(n_) + " mean=" + formatDouble(mean()) +
           " p50=" + formatDouble(quantile(0.50)) +
           " p95=" + formatDouble(quantile(0.95)) +
           " p99=" + formatDouble(quantile(0.99)) +
           " max=" + formatDouble(max());
}

Vector &
Vector::push(double v)
{
    if (!names_.empty())
        throw std::invalid_argument(
            "stats: Vector '" + path() +
            "' mixes named and unnamed elements");
    values_.push_back(v);
    return *this;
}

Vector &
Vector::push(const std::string &name, double v)
{
    if (names_.size() != values_.size())
        throw std::invalid_argument(
            "stats: Vector '" + path() +
            "' mixes named and unnamed elements");
    names_.push_back(name);
    values_.push_back(v);
    return *this;
}

void
Vector::writeJson(JsonWriter &json) const
{
    if (names_.empty()) {
        json.beginArray();
        for (const double v : values_)
            json.number(v);
        json.endArray();
    } else {
        json.beginObject();
        for (std::size_t i = 0; i < values_.size(); ++i) {
            json.key(names_[i]);
            json.number(values_[i]);
        }
        json.endObject();
    }
}

std::string
Vector::renderText() const
{
    std::string out = "[";
    for (std::size_t i = 0; i < values_.size(); ++i) {
        if (i > 0)
            out += " ";
        if (!names_.empty())
            out += names_[i] + "=";
        out += formatDouble(values_[i]);
    }
    return out + "]";
}

void
Info::writeJson(JsonWriter &json) const
{
    json.string(value_);
}

std::string
Info::renderText() const
{
    return value_;
}

std::string
sanitizeSegment(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw) {
        const bool keep =
            (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
            (c >= 'A' && c <= 'Z') || c == '_' || c == '-' ||
            c == '(' || c == ')' || c == '[' || c == ']' || c == ',' ||
            c == '+' || c == '=';
        out += keep ? c : '_';
    }
    return out.empty() ? std::string("_") : out;
}

void
Registry::checkInsertable(const std::string &path) const
{
    if (path.empty())
        throw std::invalid_argument("stats: empty path");
    if (path.front() == '.' || path.back() == '.' ||
        path.find("..") != std::string::npos)
        throw std::invalid_argument("stats: malformed path '" + path +
                                    "' (empty segment)");
    for (const char c : path) {
        if (c == '"' || c == '\\' || std::isspace(
                static_cast<unsigned char>(c)))
            throw std::invalid_argument(
                "stats: path '" + path +
                "' contains whitespace or quoting characters");
    }
    if (stats_.count(path))
        throw std::invalid_argument("stats: duplicate path '" + path +
                                    "'");
    // A leaf may not also be an interior node of the JSON tree: no
    // registered path may be a dotted prefix of another.
    const auto after = stats_.lower_bound(path);
    if (after != stats_.end() &&
        after->first.compare(0, path.size() + 1, path + ".") == 0)
        throw std::invalid_argument(
            "stats: '" + path + "' would shadow existing subtree '" +
            after->first + "'");
    for (std::size_t dot = path.find('.'); dot != std::string::npos;
         dot = path.find('.', dot + 1)) {
        if (stats_.count(path.substr(0, dot)))
            throw std::invalid_argument(
                "stats: '" + path + "' nests under existing leaf '" +
                path.substr(0, dot) + "'");
    }
}

template <typename StatT, typename... Args>
StatT &
Registry::add(const std::string &path, Args &&...args)
{
    checkInsertable(path);
    auto stat =
        std::make_unique<StatT>(path, std::forward<Args>(args)...);
    StatT &ref = *stat;
    stats_.emplace(path, std::move(stat));
    return ref;
}

Scalar &
Registry::scalar(const std::string &path, std::string desc)
{
    return add<Scalar>(path, std::move(desc));
}

Value &
Registry::value(const std::string &path, std::string desc)
{
    return add<Value>(path, std::move(desc));
}

Distribution &
Registry::distribution(const std::string &path, std::string desc)
{
    return add<Distribution>(path, std::move(desc));
}

Quantile &
Registry::quantile(const std::string &path, std::string desc)
{
    return add<Quantile>(path, std::move(desc));
}

Vector &
Registry::vector(const std::string &path, std::string desc)
{
    return add<Vector>(path, std::move(desc));
}

Info &
Registry::info(const std::string &path, std::string desc)
{
    return add<Info>(path, std::move(desc));
}

const Stat *
Registry::find(const std::string &path) const
{
    const auto it = stats_.find(path);
    return it == stats_.end() ? nullptr : it->second.get();
}

std::vector<const Stat *>
Registry::sorted() const
{
    std::vector<const Stat *> out;
    out.reserve(stats_.size());
    for (const auto &[path, stat] : stats_)
        out.push_back(stat.get());
    return out;
}

Group
Group::group(const std::string &name) const
{
    return Group(*registry_, join(name));
}

std::string
Group::join(const std::string &name) const
{
    const std::string segment = sanitizeSegment(name);
    return prefix_.empty() ? segment : prefix_ + "." + segment;
}

Scalar &
Group::scalar(const std::string &name, std::string desc) const
{
    return registry_->scalar(join(name), std::move(desc));
}

Value &
Group::value(const std::string &name, std::string desc) const
{
    return registry_->value(join(name), std::move(desc));
}

Distribution &
Group::distribution(const std::string &name, std::string desc) const
{
    return registry_->distribution(join(name), std::move(desc));
}

Quantile &
Group::quantile(const std::string &name, std::string desc) const
{
    return registry_->quantile(join(name), std::move(desc));
}

Vector &
Group::vector(const std::string &name, std::string desc) const
{
    return registry_->vector(join(name), std::move(desc));
}

Info &
Group::info(const std::string &name, std::string desc) const
{
    return registry_->info(join(name), std::move(desc));
}

std::string
renderText(const Registry &registry)
{
    std::size_t width = 0;
    for (const Stat *stat : registry.sorted())
        width = std::max(width, stat->path().size());
    std::string out;
    for (const Stat *stat : registry.sorted()) {
        std::string line = stat->path();
        line.append(width - line.size() + 2, ' ');
        line += stat->renderText();
        if (!stat->desc().empty()) {
            line += "  # ";
            line += stat->desc();
        }
        out += line;
        out += '\n';
    }
    return out;
}

void
writeJsonTree(const Registry &registry, JsonWriter &json)
{
    // Sorted paths visit the tree depth-first, so a simple stack of
    // open prefixes reproduces the nesting.
    std::vector<std::string> open;
    json.beginObject();
    for (const Stat *stat : registry.sorted()) {
        // Split the path into segments.
        std::vector<std::string> segments;
        const std::string &path = stat->path();
        std::size_t start = 0;
        for (std::size_t dot = path.find('.');;
             dot = path.find('.', start)) {
            if (dot == std::string::npos) {
                segments.push_back(path.substr(start));
                break;
            }
            segments.push_back(path.substr(start, dot - start));
            start = dot + 1;
        }
        // Close groups that the new path has left.
        std::size_t common = 0;
        while (common < open.size() && common + 1 < segments.size() &&
               open[common] == segments[common])
            ++common;
        while (open.size() > common) {
            json.endObject();
            open.pop_back();
        }
        // Open the new path's groups.
        for (std::size_t s = common; s + 1 < segments.size(); ++s) {
            json.key(segments[s]);
            json.beginObject();
            open.push_back(segments[s]);
        }
        json.key(segments.back());
        stat->writeJson(json);
    }
    while (!open.empty()) {
        json.endObject();
        open.pop_back();
    }
    json.endObject();
}

} // namespace sos::stats
