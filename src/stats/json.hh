/**
 * @file
 * Minimal deterministic JSON emission for the stats sinks.
 *
 * The writer is a thin streaming layer over a std::string: callers
 * push objects/arrays/keys/values and commas are inserted
 * automatically. Output is deterministic by construction -- no
 * pointer-keyed containers, no locale dependence, and doubles are
 * rendered with a fixed shortest-round-trip rule -- which is what
 * lets run manifests be compared bit-for-bit across worker counts
 * (DESIGN.md section 5b).
 */

#ifndef SOS_STATS_JSON_HH
#define SOS_STATS_JSON_HH

#include <cstdint>
#include <string>
#include <vector>

namespace sos::stats {

/** Escape a string for inclusion in a JSON document (no quotes). */
std::string escapeJson(const std::string &raw);

/**
 * Render a double deterministically: the shortest of %.15g / %.16g /
 * %.17g that parses back to the same bits. Non-finite values render
 * as null (JSON has no literal for them).
 */
std::string formatDouble(double value);

/**
 * Write @p document to @p path, replacing any existing file. A bad
 * destination is a user error, so failing to open or fully write the
 * file is fatal(); @p what names the output ("manifest", "trace",
 * "bench") in the message.
 */
void writeFileOrFatal(const std::string &path,
                      const std::string &document,
                      const std::string &what);

/** Streaming JSON writer with automatic comma placement. */
class JsonWriter
{
  public:
    /** Appends everything to @p out (not owned). */
    explicit JsonWriter(std::string *out);

    /** @name Containers @{ */
    void beginObject();
    void endObject();
    void beginArray();
    void endArray();
    /** @} */

    /** Emit an object key; the next value call supplies its value. */
    void key(const std::string &name);

    /** @name Values @{ */
    void string(const std::string &value);
    void number(double value);
    void number(std::uint64_t value);
    void number(std::int64_t value);
    void number(int value) { number(static_cast<std::int64_t>(value)); }
    void boolean(bool value);
    void null();
    /** @} */

    /** True once every container has been closed. */
    bool complete() const { return stack_.empty() && wroteValue_; }

  private:
    /** Insert a comma if the enclosing container needs one. */
    void separate();

    struct Level
    {
        bool array = false;
        bool hasEntries = false;
        bool keyPending = false;
    };

    std::string *out_;
    std::vector<Level> stack_;
    bool wroteValue_ = false;
};

} // namespace sos::stats

#endif // SOS_STATS_JSON_HH
