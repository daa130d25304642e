/**
 * @file
 * The one JSON path of the repository: every machine-readable
 * artifact (the BENCH_*.json reports of paper_eval and
 * bench_serving) is built as a Json value and written by
 * JsonWriter, and every expectation file is read back by the strict
 * parseJson().
 *
 * Writer layout, byte-stable so regenerated artifacts diff cleanly
 * against the committed ones:
 *  - "schema_version" is the first key of every report;
 *  - an object outside an array puts one key per line, indented two
 *    spaces per nesting level;
 *  - an array of scalars is written inline: ["NW", "LDPC"];
 *  - an array holding containers puts one element per line, and
 *    each element is written on its one line;
 *  - integers print as integers, doubles in ostream's default format
 *    (six significant digits); a non-finite double throws;
 *  - '"' and '\\' are backslash-escaped, control characters written
 *    as \u00XX.
 *
 * The reader fails closed: it parses the whole input and rejects
 * trailing bytes, duplicate keys and anything else outside RFC 8259,
 * naming the line and column.  Typed lookups throw a JsonError that
 * names the key, so a gate over a missing or mistyped field fails
 * instead of silently skipping its check.
 */

#ifndef MARIONETTE_REPORT_JSON_H
#define MARIONETTE_REPORT_JSON_H

#include <concepts>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace marionette::report
{

/** Bump when an existing field changes meaning; added fields are
 *  not a version bump. */
constexpr int kSchemaVersion = 2;

/** Parse errors, failed typed lookups and unwritable values. */
class JsonError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** A JSON value; objects keep their keys in insertion order. */
class Json
{
  public:
    using Array = std::vector<Json>;
    using Object = std::vector<std::pair<std::string, Json>>;

    Json() = default; ///< null.
    Json(bool v) : value_(v) {}
    template <std::integral T>
        requires(!std::same_as<T, bool>)
    Json(T v) : value_(static_cast<std::int64_t>(v))
    {
    }
    Json(double v) : value_(v) {}
    Json(std::string v) : value_(std::move(v)) {}
    Json(const char *v) : value_(std::string(v)) {}
    Json(Array v) : value_(std::move(v)) {}

    static Json object() { return Json(Object{}); }

    /** Append @p key to an object; throws on a duplicate key. */
    Json &set(std::string key, Json value);

    /** The value as T (bool, std::int64_t, std::string, Array or
     *  Object); throws "expected <kind>, got <kind>" otherwise. */
    template <typename T> const T &as() const;
    bool isNumber() const
    {
        return std::holds_alternative<std::int64_t>(value_) ||
               std::holds_alternative<double>(value_);
    }
    /** An integer or a double, as a double. */
    double asNumber() const;

    /** Member @p key of an object, or nullptr when absent. */
    const Json *find(std::string_view key) const;
    /** Member @p key; throws 'missing key "k"' when absent. */
    const Json &at(std::string_view key) const;
    /** at(key).as<T>(), with the key named in any error. */
    template <typename T> const T &get(std::string_view key) const;

    bool operator==(const Json &other) const = default;

  private:
    friend class JsonWriter;
    Json(Object v) : value_(std::move(v)) {}
    const char *kindName() const;

    std::variant<std::monostate, bool, std::int64_t, double,
                 std::string, Array, Object>
        value_;
};

/** Parse a whole JSON document; throws JsonError (with line and
 *  column) on malformed input, trailing bytes or duplicate keys. */
Json parseJson(std::string_view text);
/** parseJson() over a file's contents; throws when unreadable. */
Json parseJsonFile(const std::string &path);

/** A report document: an object that leads with schema_version. */
class JsonWriter
{
  public:
    JsonWriter() { doc_.set("schema_version", kSchemaVersion); }

    JsonWriter &
    set(std::string key, Json value)
    {
        doc_.set(std::move(key), std::move(value));
        return *this;
    }

    /** The document in the artifact layout, newline-terminated. */
    std::string str() const;

    /** Write str() to @p path and print "wrote <kind> report:
     *  <path>"; false (with a message on stderr) on I/O failure. */
    bool save(const std::string &path, const char *kind) const;

  private:
    static void render(std::string &out, const Json &v, int indent,
                       bool one_line);

    Json doc_ = Json::object();
};

template <typename T>
const T &
Json::as() const
{
    if (const T *v = std::get_if<T>(&value_))
        return *v;
    throw JsonError(std::string("expected ") + Json(T{}).kindName() +
                    ", got " + kindName());
}

template <typename T>
const T &
Json::get(std::string_view key) const
{
    const Json &v = at(key);
    try {
        return v.as<T>();
    } catch (const JsonError &e) {
        throw JsonError("key \"" + std::string(key) + "\": " +
                        e.what());
    }
}

} // namespace marionette::report

#endif // MARIONETTE_REPORT_JSON_H
