#include "common/strutil.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <system_error>

#include "common/logging.hh"

namespace gpusimpow {

std::string
trim(std::string_view s)
{
    size_t begin = 0;
    size_t end = s.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(s[begin])))
        ++begin;
    while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1])))
        --end;
    return std::string(s.substr(begin, end - begin));
}

std::vector<std::string>
split(const std::string &s, char delim)
{
    std::vector<std::string> out;
    std::string current;
    for (char c : s) {
        if (c == delim) {
            out.push_back(current);
            current.clear();
        } else {
            current.push_back(c);
        }
    }
    out.push_back(current);
    return out;
}

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.substr(0, prefix.size()) == prefix;
}

long
parseLong(const std::string &s, const std::string &context)
{
    char *end = nullptr;
    std::string t = trim(s);
    errno = 0;
    long v = std::strtol(t.c_str(), &end, 0);
    if (t.empty() || end == nullptr || *end != '\0')
        fatal("cannot parse integer '", s, "' (", context, ")");
    if (errno == ERANGE)
        fatal("integer '", s, "' overflows (", context, ")");
    return v;
}

unsigned
parseUnsigned(const std::string &s, const std::string &context,
              unsigned min, unsigned max)
{
    long v = parseLong(s, context);
    // Compare in unsigned long: wide enough for any unsigned bound
    // even on LLP64/ILP32 platforms where long is 32 bits.
    if (v < 0 || static_cast<unsigned long>(v) < min ||
        static_cast<unsigned long>(v) > max)
        fatal("value ", v, " out of range [", min, ", ", max, "] (",
              context, ")");
    return static_cast<unsigned>(v);
}

double
parseDouble(const std::string &s, const std::string &context)
{
    double v = 0.0;
    if (!TextCursor::parseDouble(trim(s), v))
        fatal("cannot parse number '", s, "' (", context, ")");
    return v;
}

bool
parseBool(const std::string &s, const std::string &context)
{
    std::string t = trim(s);
    if (t == "true" || t == "1")
        return true;
    if (t == "false" || t == "0")
        return false;
    fatal("cannot parse boolean '", s, "' (", context, ")");
}

namespace {

/** The C-locale isspace() set, without a locale lookup per byte. */
bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

} // namespace

std::string_view
TextCursor::next()
{
    while (_pos < _text.size() && isSpace(_text[_pos]))
        ++_pos;
    std::size_t begin = _pos;
    while (_pos < _text.size() && !isSpace(_text[_pos]))
        ++_pos;
    return _text.substr(begin, _pos - begin);
}

std::string_view
TextCursor::token(std::string_view context)
{
    std::string_view tok = next();
    if (tok.empty())
        fatal("truncated record: expected ", context);
    return tok;
}

bool
TextCursor::flag(std::string_view context)
{
    std::string_view tok = token(context);
    uint64_t v = 0;
    if (!parseU64(tok, v))
        fatal("malformed record: bad ", context, " '", tok, "'");
    if (v > 1)
        fatal("malformed record: ", context, " must be 0 or 1, got ",
              v);
    return v != 0;
}

double
TextCursor::f64(std::string_view context)
{
    std::string_view tok = token(context);
    double v = 0.0;
    if (!parseDouble(tok, v))
        fatal("malformed record: bad ", context, " '", tok, "'");
    return v;
}

bool
TextCursor::parseU64(std::string_view tok, uint64_t &v, int base)
{
    // Unsigned from_chars takes no sign, prefix or space: digits only.
    const char *end = tok.data() + tok.size();
    auto [ptr, ec] = std::from_chars(tok.data(), end, v, base);
    return ec == std::errc() && ptr == end;
}

bool
TextCursor::parseDouble(std::string_view tok, double &v)
{
    // strtod's syntax through from_chars, which takes neither '+',
    // a hex prefix nor a sign after one: peel sign and prefix here.
    bool signed_tok = !tok.empty() && (tok[0] == '+' || tok[0] == '-');
    std::string_view body = tok.substr(signed_tok);
    bool hex = startsWith(body, "0x") || startsWith(body, "0X");
    body.remove_prefix(hex ? 2 : 0);
    if (body.empty() || body[0] == '+' || body[0] == '-')
        return false;
    if (hex) {
        // libstdc++'s hex format also reads "inf"/"nan" and takes
        // "p+-1" for "p-1", where strtod stops at the 'x' or the 'p'.
        std::size_t exponent = body.find_first_of("pP");
        if ((body[0] != '.' &&
             !std::isxdigit(static_cast<unsigned char>(body[0]))) ||
            (exponent != std::string_view::npos &&
             body.substr(exponent + 1, 2) == "+-"))
            return false;
    }
    const char *end = body.data() + body.size();
    auto [ptr, ec] = std::from_chars(
        body.data(), end, v,
        hex ? std::chars_format::hex : std::chars_format::general);
    if (ptr != end || (ec != std::errc() &&
                       ec != std::errc::result_out_of_range))
        return false;
    if (ec != std::errc() || std::isnan(v))
        // from_chars refuses what strtod rounds to +-HUGE_VAL or
        // toward zero, and drops NaN payloads: keep strtod's value.
        v = std::strtod(std::string(tok).c_str(), nullptr);
    else if (tok[0] == '-')
        v = -v;
    return true;
}

bool
TextCursor::line(std::string_view &out)
{
    std::size_t nl = std::min(_text.find('\n', _pos), _text.size());
    out = _text.substr(_pos, nl - _pos);
    _pos = std::min(nl + 1, _text.size());
    return nl < _text.size();
}

bool
TextCursor::bytes(uint64_t n, std::string_view &out)
{
    // Compared against what is left, so no length can wrap the sum.
    if (_pos >= _text.size() || n > _text.size() - _pos - 1 ||
        _text[_pos + n] != '\n')
        return false;
    out = _text.substr(_pos, n);
    _pos += n + 1;
    return true;
}

void
TextCursor::skipSpace()
{
    while (_pos < _text.size() && isSpace(_text[_pos]))
        ++_pos;
}

bool
TextCursor::consume(std::string_view literal)
{
    if (_text.substr(_pos, literal.size()) != literal)
        return false;
    _pos += literal.size();
    return true;
}

bool
TextCursor::until(std::string_view delim, std::string_view &out)
{
    std::size_t at = _text.find(delim, _pos);
    if (at == std::string_view::npos)
        return false;
    out = _text.substr(_pos, at - _pos);
    _pos = at + delim.size();
    return true;
}

std::string
TextCursor::where() const
{
    std::string_view done = _text.substr(0, _pos);
    // rfind's npos + 1 wraps to 0: the first line starts the text.
    std::size_t line_start = done.rfind('\n') + 1;
    return strformat("line %zu, column %zu, byte offset %zu",
                     std::count(done.begin(), done.end(), '\n') + 1,
                     _pos - line_start + 1, _pos);
}

std::string
strformat(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string out;
    if (needed > 0) {
        out.resize(static_cast<size_t>(needed) + 1);
        std::vsnprintf(out.data(), out.size(), fmt, args_copy);
        out.resize(static_cast<size_t>(needed));
    }
    va_end(args_copy);
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20)
                out += strformat("\\u%04x", c);
            else
                out += static_cast<char>(c);
        }
    }
    return out;
}

} // namespace gpusimpow
