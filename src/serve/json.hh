/**
 * @file
 * Minimal JSON reader for the serve protocol.
 *
 * `dalorex serve` speaks newline-delimited JSON, so the daemon needs
 * to *parse* JSON for the first time (every other layer only renders
 * it). This is a small recursive-descent parser producing an owning
 * JsonValue tree: objects preserve key order, numbers keep their raw
 * token text so 64-bit integers (seeds, cycle counts) round-trip
 * exactly instead of sagging through a double. Errors are data — a
 * malformed request line must produce a one-line `error` response,
 * never kill the daemon.
 */

#ifndef DALOREX_SERVE_JSON_HH
#define DALOREX_SERVE_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dalorex
{
namespace serve
{

/** One parsed JSON value (an owning tree). */
struct JsonValue
{
    enum class Kind
    {
        null,
        boolean,
        number,
        string,
        array,
        object,
    };

    Kind kind = Kind::null;
    bool boolean = false;
    double number = 0.0;
    std::string raw;  //!< number: the exact source token
    std::string text; //!< string: the unescaped contents
    std::vector<JsonValue> items; //!< array elements
    std::vector<std::pair<std::string, JsonValue>> members; //!< object

    bool isBool() const { return kind == Kind::boolean; }
    bool isNumber() const { return kind == Kind::number; }
    bool isString() const { return kind == Kind::string; }
    bool isObject() const { return kind == Kind::object; }

    /** Object member by key; nullptr when absent or not an object. */
    const JsonValue* find(const std::string& key) const;

    /**
     * The number as an exact unsigned 64-bit integer; false when the
     * value is not a number, is negative/fractional, or overflows.
     */
    bool asU64(std::uint64_t& out) const;
};

/** Outcome of parsing one JSON document. */
struct JsonParseResult
{
    JsonValue value;
    bool ok = true;
    std::string error; //!< one line with a byte offset, set when !ok
};

/**
 * Parse `text` as exactly one JSON document (trailing whitespace
 * allowed, trailing garbage is an error). Handles the full scalar
 * escape set including \uXXXX surrogate pairs (decoded to UTF-8).
 */
JsonParseResult parseJson(const std::string& text);

/** Render `text` as a quoted JSON string with all escapes applied. */
std::string jsonQuote(const std::string& text);

} // namespace serve
} // namespace dalorex

#endif // DALOREX_SERVE_JSON_HH
