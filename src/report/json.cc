#include "report/json.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>

namespace marionette::report
{

Json &
Json::set(std::string key, Json value)
{
    if (find(key) != nullptr)
        throw JsonError("duplicate key \"" + key + "\"");
    std::get<Object>(value_).emplace_back(std::move(key),
                                          std::move(value));
    return *this;
}

const char *
Json::kindName() const
{
    static const char *const names[] = {
        "null", "bool", "integer", "number", "string", "array",
        "object"};
    return names[value_.index()];
}

double
Json::asNumber() const
{
    if (const std::int64_t *v = std::get_if<std::int64_t>(&value_))
        return static_cast<double>(*v);
    return as<double>();
}

const Json *
Json::find(std::string_view key) const
{
    for (const auto &[name, value] : as<Object>())
        if (name == key)
            return &value;
    return nullptr;
}

const Json &
Json::at(std::string_view key) const
{
    if (const Json *v = find(key))
        return *v;
    throw JsonError("missing key \"" + std::string(key) + "\"");
}

namespace
{

/** Recursive-descent reader over RFC 8259. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    Json
    document()
    {
        Json value = parseValue();
        if (skipSpace() != text_.size())
            fail("trailing bytes after the document");
        return value;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        const std::string_view before = text_.substr(0, pos_);
        const auto line =
            std::count(before.begin(), before.end(), '\n') + 1;
        const auto column = pos_ - (before.rfind('\n') + 1) + 1;
        throw JsonError("line " + std::to_string(line) + ", column " +
                        std::to_string(column) + ": " + what);
    }

    std::size_t
    skipSpace()
    {
        pos_ = std::min(text_.find_first_not_of(" \t\n\r", pos_),
                        text_.size());
        return pos_;
    }

    /** The next non-space byte; consumed when it is @p want. */
    char
    next(char want = 0)
    {
        if (skipSpace() == text_.size())
            fail("unexpected end of input");
        const char ch = text_[pos_];
        pos_ += ch == want ? 1 : 0;
        return ch;
    }

    /** The comma-separated items of a container up to @p close. */
    template <typename Item>
    void
    items(char close, Item item)
    {
        ++pos_; // the opening bracket.
        if (next(close) == close)
            return;
        do {
            item();
        } while (next(',') == ',');
        if (const char ch = next(close); ch != close)
            fail(std::string("unexpected character '") + ch +
                 "', expected ',' or '" + close + "'");
    }

    Json
    parseValue()
    {
        const char ch = next();
        if (ch == '[') {
            Json::Array array;
            items(']', [&] { array.push_back(parseValue()); });
            return Json(std::move(array));
        }
        if (ch == '{') {
            Json object = Json::object();
            items('}', [&] {
                if (next() != '"')
                    fail("expected a string key");
                const std::size_t key_at = pos_;
                std::string key = parseString();
                if (next(':') != ':')
                    fail("expected ':'");
                Json value = parseValue();
                if (object.find(key) != nullptr) {
                    pos_ = key_at;
                    fail("duplicate key \"" + key + "\"");
                }
                object.set(std::move(key), std::move(value));
            });
            return object;
        }
        if (ch == '"')
            return Json(parseString());
        if (ch == '-' || (ch >= '0' && ch <= '9'))
            return parseNumber();
        for (const auto &[word, value] :
             {std::pair<std::string_view, Json>{"true", true},
              {"false", false},
              {"null", Json()}})
            if (text_.substr(pos_, word.size()) == word) {
                pos_ += word.size();
                return value;
            }
        fail(std::string("unexpected character '") + ch + "'");
    }

    /** The four hex digits of a \u escape, as UTF-8.  Surrogates
     *  are refused: no report writes characters beyond the BMP. */
    void
    unicodeEscape(std::string &out)
    {
        const std::string hex(text_.substr(pos_, 4));
        if (hex.size() != 4 ||
            hex.find_first_not_of("0123456789abcdefABCDEF") !=
                std::string::npos)
            fail("bad \\u escape");
        const auto code = std::stoul(hex, nullptr, 16);
        if (code >= 0xd800 && code < 0xe000)
            fail("surrogate \\u escapes are not supported");
        pos_ += 4;
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
        } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
        }
    }

    std::string
    parseString()
    {
        ++pos_; // the opening quote.
        std::string out;
        for (;;) {
            if (pos_ == text_.size())
                fail("unterminated string");
            const char ch = text_[pos_++];
            if (ch == '"')
                return out;
            if (static_cast<unsigned char>(ch) < 0x20)
                fail("raw control character in a string");
            if (ch != '\\') {
                out += ch;
                continue;
            }
            const char esc = pos_ < text_.size() ? text_[pos_++] : 0;
            const std::size_t at =
                std::string_view("\"\\/bfnrt").find(esc);
            if (esc == 'u')
                unicodeEscape(out);
            else if (esc != 0 && at != std::string_view::npos)
                out += "\"\\/\b\f\n\r\t"[at];
            else
                fail("bad escape in a string");
        }
    }

    Json
    parseNumber()
    {
        static const std::regex grammar(
            R"(-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?)");
        const std::size_t end = std::min(
            text_.find_first_not_of("+-.0123456789eE", pos_),
            text_.size());
        const std::string token(text_.substr(pos_, end - pos_));
        if (!std::regex_match(token, grammar))
            fail("malformed number '" + token + "'");
        errno = 0;
        Json value = token.find_first_of(".eE") == std::string::npos
                         ? Json(std::strtoll(token.c_str(), nullptr, 10))
                         : Json(std::strtod(token.c_str(), nullptr));
        if (errno != 0)
            fail("number out of range '" + token + "'");
        pos_ = end;
        return value;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

} // namespace

Json
parseJson(std::string_view text)
{
    return Parser(text).document();
}

Json
parseJsonFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    if (!in || !(buf << in.rdbuf()))
        throw JsonError("cannot read '" + path + "'");
    return parseJson(buf.str());
}

void
JsonWriter::render(std::string &out, const Json &v, int indent,
                   bool one_line)
{
    // An object goes one key per line unless it sits in an array;
    // an array goes one element per line when it holds a container,
    // and each such element goes on one line.
    auto container = [&](char open, char close, std::size_t size,
                         bool lines, auto &&item) {
        out += open;
        for (std::size_t i = 0; i < size; ++i) {
            out += i == 0 ? "" : lines ? "," : ", ";
            if (lines)
                out.append("\n").append(
                    static_cast<std::size_t>(indent + 2), ' ');
            item(i);
        }
        if (lines)
            out.append("\n").append(static_cast<std::size_t>(indent),
                                    ' ');
        out += close;
    };
    if (const auto *array = std::get_if<Json::Array>(&v.value_)) {
        const bool nested = std::any_of(
            array->begin(), array->end(),
            [](const Json &e) {
                return std::holds_alternative<Json::Array>(e.value_) ||
                       std::holds_alternative<Json::Object>(e.value_);
            });
        container('[', ']', array->size(), !one_line && nested,
                  [&](std::size_t i) {
                      render(out, (*array)[i], indent + 2, true);
                  });
    } else if (const auto *object =
                   std::get_if<Json::Object>(&v.value_)) {
        container('{', '}', object->size(),
                  !one_line && !object->empty(), [&](std::size_t i) {
                      render(out, Json((*object)[i].first), 0, true);
                      out += ": ";
                      render(out, (*object)[i].second, indent + 2,
                             one_line);
                  });
    } else if (const auto *s = std::get_if<std::string>(&v.value_)) {
        out += '"';
        for (char ch : *s) {
            if (static_cast<unsigned char>(ch) < 0x20) {
                char code[8];
                std::snprintf(code, sizeof(code), "\\u%04x",
                              static_cast<unsigned>(ch));
                out += code;
                continue;
            }
            if (ch == '"' || ch == '\\')
                out += '\\';
            out += ch;
        }
        out += '"';
    } else if (const auto *d = std::get_if<double>(&v.value_)) {
        if (!std::isfinite(*d))
            throw JsonError("non-finite number");
        std::ostringstream text;
        text << *d;
        out += text.str();
    } else if (const auto *i = std::get_if<std::int64_t>(&v.value_)) {
        out += std::to_string(*i);
    } else if (const auto *b = std::get_if<bool>(&v.value_)) {
        out += *b ? "true" : "false";
    } else {
        out += "null";
    }
}

std::string
JsonWriter::str() const
{
    std::string out;
    render(out, doc_, 0, false);
    return out + "\n";
}

bool
JsonWriter::save(const std::string &path, const char *kind) const
{
    const std::string text = str();
    std::ofstream out(path);
    if (!(out << text) || !out.flush()) {
        std::fprintf(stderr, "cannot write %s report '%s'\n", kind,
                     path.c_str());
        return false;
    }
    std::printf("wrote %s report: %s\n", kind, path.c_str());
    return true;
}

} // namespace marionette::report
