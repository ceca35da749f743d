#include "trace.hh"

#include "common/logging.hh"
#include "stats/json.hh"

namespace sos::stats {

namespace {

void
appendField(std::string *line, const std::string &name,
            const std::string &rendered_value)
{
    *line += ",\"";
    *line += escapeJson(name);
    *line += "\":";
    *line += rendered_value;
}

} // namespace

EventTrace::Event &
EventTrace::Event::field(const std::string &name,
                         const std::string &value)
{
    appendField(line_, name, "\"" + escapeJson(value) + "\"");
    return *this;
}

EventTrace::Event &
EventTrace::Event::field(const std::string &name, const char *value)
{
    return field(name, std::string(value));
}

EventTrace::Event &
EventTrace::Event::field(const std::string &name, std::uint64_t value)
{
    appendField(line_, name, std::to_string(value));
    return *this;
}

EventTrace::Event &
EventTrace::Event::field(const std::string &name, std::int64_t value)
{
    appendField(line_, name, std::to_string(value));
    return *this;
}

EventTrace::Event &
EventTrace::Event::field(const std::string &name, int value)
{
    return field(name, static_cast<std::int64_t>(value));
}

EventTrace::Event &
EventTrace::Event::field(const std::string &name, double value)
{
    appendField(line_, name, formatDouble(value));
    return *this;
}

EventTrace::Event &
EventTrace::Event::field(const std::string &name, bool value)
{
    appendField(line_, name, value ? "true" : "false");
    return *this;
}

namespace {

/** True for the event types that begin a sampled decision group. */
bool
isPhaseOpener(const std::string &type)
{
    return type == "sample_phase_begin" || type == "dispatch_epoch";
}

} // namespace

void
EventTrace::setPhaseStride(std::uint64_t stride)
{
    SOS_ASSERT(stride > 0, "trace phase stride must be positive");
    phaseStride_ = stride;
}

void
EventTrace::setContextField(const std::string &name,
                            const std::string &rendered_value)
{
    appendField(&context_, name, rendered_value);
}

void
EventTrace::append(const EventTrace &other)
{
    lines_.insert(lines_.end(), other.lines_.begin(),
                  other.lines_.end());
}

EventTrace::Event
EventTrace::event(const std::string &type)
{
    if (phaseStride_ > 1 && isPhaseOpener(type)) {
        gateOpen_ = phasesSeen_ % phaseStride_ == 0;
        ++phasesSeen_;
    }
    if (!gateOpen_) {
        discard_.clear();
        return Event(&discard_);
    }
    lines_.emplace_back("\"event\":\"" + escapeJson(type) + "\"" +
                        context_);
    return Event(&lines_.back());
}

std::string
EventTrace::render() const
{
    std::string out;
    for (const std::string &line : lines_) {
        out += '{';
        out += line;
        out += "}\n";
    }
    return out;
}

void
EventTrace::writeFile(const std::string &path) const
{
    writeFileOrFatal(path, render(), "trace");
}

} // namespace sos::stats
