/**
 * @file
 * Small string helpers shared across the code base (trimming, token
 * splitting, numeric parsing with error reporting, printf-style
 * formatting into std::string) and TextCursor, the tokenizer of every
 * text format read back from disk or the wire.
 */

#ifndef GPUSIMPOW_COMMON_STRUTIL_HH
#define GPUSIMPOW_COMMON_STRUTIL_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gpusimpow {

/** Strip ASCII whitespace from both ends. */
std::string trim(std::string_view s);

/** Split on a single-character delimiter; empty tokens preserved. */
std::vector<std::string> split(const std::string &s, char delim);

/** True if s begins with the given prefix. */
bool startsWith(std::string_view s, std::string_view prefix);

/** Parse a decimal integer; fatal() with context on failure. */
long parseLong(const std::string &s, const std::string &context);

/**
 * Parse a non-negative integer within [min, max]; fatal() with
 * context on failure. Negative input is rejected with a range
 * message instead of wrapping through an unsigned cast.
 */
unsigned parseUnsigned(const std::string &s, const std::string &context,
                       unsigned min = 0, unsigned max = 4294967295u);

/** Parse a floating-point number; fatal() with context on failure. */
double parseDouble(const std::string &s, const std::string &context);

/** Parse "true"/"false"/"1"/"0"; fatal() with context on failure. */
bool parseBool(const std::string &s, const std::string &context);

/** printf-style formatting into a std::string. */
std::string strformat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Escape a string for embedding inside a JSON string literal
 *  (quotes, backslashes, control characters). */
std::string jsonEscape(const std::string &s);

/**
 * Forward-only tokenizer over a text buffer: the one reader behind
 * every parser of untrusted text (sweep requests, wire frame
 * headers, XML configurations).
 *
 *  - A token is a maximal run of non-whitespace bytes. Whitespace is
 *    the C-locale isspace() set (space, \t, \n, \v, \f, \r); every
 *    other byte, NUL and non-ASCII included, is token text.
 *  - Integers are digits only: no sign, no base prefix, and a value
 *    past 2^64-1 is an error, never wrapped.
 *  - Doubles take strtod()'s whole-token syntax (decimal, an optional
 *    sign, inf/nan and C99 hex floats) through std::from_chars, so a
 *    value written with strformat("%a", v) reads back bit-exactly
 *    and no locale is consulted. Values past the double range and
 *    NaN payloads read as strtod() reads them.
 *  - The typed readers fatal() with the caller's context and leave
 *    the cursor just past the offending token, or at the end of the
 *    text when a token is missing; where() names that position.
 *  - The cursor views the text and hands out views into it, so the
 *    text must outlive the cursor and every token taken from it.
 *    Nothing is allocated per token.
 */
class TextCursor
{
  public:
    explicit TextCursor(std::string_view text) : _text(text) {}

    /** Next token, or an empty view at the end of the text. */
    std::string_view next();
    /** Typed tokens (a flag is 0 or 1); fatal() naming `context`
     *  when the token is missing or malformed. */
    bool flag(std::string_view context);
    double f64(std::string_view context);

    /** std::getline: the rest of the line (or of the text) without
     *  its newline, consumed; false when no newline ends it. */
    bool line(std::string_view &out);
    /** `n` bytes and a newline, consumed; false (nothing consumed)
     *  when they are not all there. No `n` can overflow the check. */
    bool bytes(uint64_t n, std::string_view &out);
    std::size_t remaining() const { return _text.size() - _pos; }
    /** "line L, column C, byte offset O" of the cursor (1-based). */
    std::string where() const;

    // Byte-level reads for markup (the XML reader), where tokens are
    // not whitespace-delimited.
    /** The next byte, not consumed; '\0' at the end of the text. */
    char peek() const { return _pos < _text.size() ? _text[_pos] : '\0'; }
    /** Skip whitespace. */
    void skipSpace();
    /** Consume `literal` if the text continues with it. */
    bool consume(std::string_view literal);
    /** Everything before the next `delim`, consumed with it; false
     *  (nothing consumed) when no `delim` follows. */
    bool until(std::string_view delim, std::string_view &out);
    /** The longest run of bytes that satisfy `pred`, consumed. */
    template <typename Pred>
    std::string_view
    span(Pred pred)
    {
        std::size_t begin = _pos;
        while (_pos < _text.size() && pred(_text[_pos]))
            ++_pos;
        return _text.substr(begin, _pos - begin);
    }

    /** Whole-token parses: digits only in `base`, and as f64(). */
    static bool parseU64(std::string_view tok, uint64_t &v,
                         int base = 10);
    static bool parseDouble(std::string_view tok, double &v);

  private:
    /** The next token; fatal() naming `context` when none is left. */
    std::string_view token(std::string_view context);

    std::string_view _text;
    std::size_t _pos = 0;
};

} // namespace gpusimpow

#endif // GPUSIMPOW_COMMON_STRUTIL_HH
