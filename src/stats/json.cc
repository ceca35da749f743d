#include "json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace sos::stats {

std::string
escapeJson(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buffer;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
formatDouble(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buffer[40];
    for (const int precision : {15, 16, 17}) {
        std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
        if (std::strtod(buffer, nullptr) == value)
            break;
    }
    return buffer;
}

JsonWriter::JsonWriter(std::string *out) : out_(out)
{
    SOS_ASSERT(out != nullptr);
}

void
JsonWriter::separate()
{
    if (stack_.empty())
        return;
    Level &level = stack_.back();
    if (level.array) {
        if (level.hasEntries)
            *out_ += ',';
        level.hasEntries = true;
    } else {
        SOS_ASSERT(level.keyPending,
                   "object values need a preceding key()");
        level.keyPending = false;
    }
}

void
JsonWriter::beginObject()
{
    separate();
    *out_ += '{';
    stack_.push_back(Level{});
}

void
JsonWriter::endObject()
{
    SOS_ASSERT(!stack_.empty() && !stack_.back().array);
    SOS_ASSERT(!stack_.back().keyPending, "key() without a value");
    stack_.pop_back();
    *out_ += '}';
    wroteValue_ = true;
}

void
JsonWriter::beginArray()
{
    separate();
    *out_ += '[';
    stack_.push_back(Level{true, false, false});
}

void
JsonWriter::endArray()
{
    SOS_ASSERT(!stack_.empty() && stack_.back().array);
    stack_.pop_back();
    *out_ += ']';
    wroteValue_ = true;
}

void
JsonWriter::key(const std::string &name)
{
    SOS_ASSERT(!stack_.empty() && !stack_.back().array,
               "key() is only valid inside an object");
    Level &level = stack_.back();
    SOS_ASSERT(!level.keyPending, "two key() calls in a row");
    if (level.hasEntries)
        *out_ += ',';
    level.hasEntries = true;
    level.keyPending = true;
    *out_ += '"';
    *out_ += escapeJson(name);
    *out_ += "\":";
}

void
JsonWriter::string(const std::string &value)
{
    separate();
    *out_ += '"';
    *out_ += escapeJson(value);
    *out_ += '"';
    wroteValue_ = true;
}

void
JsonWriter::number(double value)
{
    separate();
    *out_ += formatDouble(value);
    wroteValue_ = true;
}

void
JsonWriter::number(std::uint64_t value)
{
    separate();
    *out_ += std::to_string(value);
    wroteValue_ = true;
}

void
JsonWriter::number(std::int64_t value)
{
    separate();
    *out_ += std::to_string(value);
    wroteValue_ = true;
}

void
JsonWriter::boolean(bool value)
{
    separate();
    *out_ += value ? "true" : "false";
    wroteValue_ = true;
}

void
JsonWriter::null()
{
    separate();
    *out_ += "null";
    wroteValue_ = true;
}

void
writeFileOrFatal(const std::string &path, const std::string &document,
                 const std::string &what)
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        fatal("cannot open ", what, " output '", path, "'");
    const std::size_t written =
        std::fwrite(document.data(), 1, document.size(), file);
    const bool ok = written == document.size() && std::fclose(file) == 0;
    if (!ok)
        fatal("short write to ", what, " output '", path, "'");
}

} // namespace sos::stats
