/**
 * @file
 * Unit tests for the common substrate: string utilities and the
 * TextCursor tokenizer, bit utilities, deterministic RNG, and the
 * error-reporting discipline.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <regex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/strutil.hh"

using namespace gpusimpow;

TEST(StrUtil, TrimRemovesSurroundingWhitespace)
{
    EXPECT_EQ(trim("  abc \t\n"), "abc");
    EXPECT_EQ(trim("abc"), "abc");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
}

TEST(StrUtil, SplitPreservesEmptyTokens)
{
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
    EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(StrUtil, StartsWith)
{
    EXPECT_TRUE(startsWith("gpusimpow", "gpu"));
    EXPECT_FALSE(startsWith("gpu", "gpusimpow"));
    EXPECT_TRUE(startsWith("x", ""));
}

TEST(StrUtil, ParseLongAcceptsDecimalAndHex)
{
    EXPECT_EQ(parseLong("42", "t"), 42);
    EXPECT_EQ(parseLong(" -7 ", "t"), -7);
    EXPECT_EQ(parseLong("0x10", "t"), 16);
}

TEST(StrUtil, ParseLongRejectsGarbage)
{
    EXPECT_THROW(parseLong("12abc", "t"), FatalError);
    EXPECT_THROW(parseLong("", "t"), FatalError);
    // Overflow must be a hard error, not a silent clamp to LONG_MAX.
    EXPECT_THROW(parseLong("99999999999999999999999", "t"), FatalError);
}

TEST(StrUtil, ParseUnsignedRejectsNegativesInsteadOfWrapping)
{
    // The CLI bug class this guards: "--jobs -1" must not become
    // 4294967295 workers through an unsigned cast.
    EXPECT_EQ(parseUnsigned("42", "t"), 42u);
    EXPECT_EQ(parseUnsigned("0", "t"), 0u);
    EXPECT_THROW(parseUnsigned("-1", "t"), FatalError);
    EXPECT_THROW(parseUnsigned("-2147483648", "t"), FatalError);
    EXPECT_THROW(parseUnsigned("abc", "t"), FatalError);
}

TEST(StrUtil, ParseUnsignedEnforcesRange)
{
    EXPECT_EQ(parseUnsigned("8", "t", 1, 16), 8u);
    EXPECT_THROW(parseUnsigned("0", "t", 1, 16), FatalError);
    EXPECT_THROW(parseUnsigned("17", "t", 1, 16), FatalError);
}

TEST(StrUtil, ParseDoubleAndBool)
{
    EXPECT_DOUBLE_EQ(parseDouble("2.5e3", "t"), 2500.0);
    EXPECT_THROW(parseDouble("abc", "t"), FatalError);
    EXPECT_TRUE(parseBool("true", "t"));
    EXPECT_FALSE(parseBool("0", "t"));
    EXPECT_THROW(parseBool("yes", "t"), FatalError);
}

TEST(StrUtil, Strformat)
{
    EXPECT_EQ(strformat("%d-%s", 5, "x"), "5-x");
    EXPECT_EQ(strformat("%.2f", 1.234), "1.23");
}

namespace {

uint64_t
bitsOf(double v)
{
    uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

/** Read one "%a"-formatted double back through a cursor. */
void
expectHexFloatRoundTrip(double v)
{
    const std::string tok = strformat("%a", v);
    TextCursor in(tok);
    EXPECT_EQ(bitsOf(in.f64("value")), bitsOf(v)) << tok;
}

} // namespace

TEST(TextCursor, TokensSplitOnTheCLocaleWhitespaceSet)
{
    // NUL and non-ASCII bytes are token text, like any non-space.
    const std::string text =
        std::string("a\tb\nc\vd\fe\rf  g") + '\0' + "h\x80 ";
    TextCursor in(text);
    for (const char *want : {"a", "b", "c", "d", "e", "f"})
        EXPECT_EQ(in.next(), want);
    EXPECT_EQ(in.next(), std::string_view("g\0h\x80", 4));
    EXPECT_EQ(in.next(), "");
    EXPECT_EQ(in.remaining(), 0u);
}

TEST(TextCursor, IntegersAreDigitsOnly)
{
    uint64_t v = 0;
    EXPECT_TRUE(TextCursor::parseU64("18446744073709551615", v));
    EXPECT_EQ(v, UINT64_MAX);
    EXPECT_TRUE(TextCursor::parseU64("007", v));
    EXPECT_EQ(v, 7u);
    EXPECT_TRUE(TextCursor::parseU64("00fF", v, 16));
    EXPECT_EQ(v, 255u);
    for (const char *bad : {"", "-1", "+1", " 1", "1 ", "0x10", "1e3",
                            "12a", "18446744073709551616"})
        EXPECT_FALSE(TextCursor::parseU64(bad, v)) << bad;
}

TEST(TextCursor, TypedReadersFatalWithContextAtTheirPosition)
{
    TextCursor in("flags 1 2\nscale -1");
    EXPECT_EQ(in.next(), "flags");
    EXPECT_TRUE(in.flag("first flag"));
    try {
        in.flag("second flag");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "malformed record: second flag must be "
                               "0 or 1, got 2");
    }
    // The cursor stops just past the offending token.
    EXPECT_EQ(in.where(), "line 1, column 10, byte offset 9");
    EXPECT_EQ(in.next(), "scale");
    try {
        in.flag("scale flag");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "malformed record: bad scale flag '-1'");
    }
    EXPECT_EQ(in.where(), "line 2, column 9, byte offset 18");
    try {
        in.f64("interval");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "truncated record: expected interval");
    }
    TextCursor other("workload");
    EXPECT_THROW(other.flag("scale"), FatalError);
    EXPECT_THROW(other.f64("time"), FatalError);
}

TEST(TextCursor, LinesAndFramedBytesNeverReadPastTheText)
{
    TextCursor in("ab\ncdef\ngh");
    std::string_view line;
    std::string_view bytes;
    ASSERT_TRUE(in.line(line));
    EXPECT_EQ(line, "ab");
    EXPECT_FALSE(in.bytes(5, bytes)); // no newline after 5 bytes
    // Lengths whose end-of-section sum would wrap are just too long.
    EXPECT_FALSE(in.bytes(UINT64_MAX, bytes));
    EXPECT_FALSE(in.bytes(UINT64_MAX - 4, bytes));
    ASSERT_TRUE(in.bytes(4, bytes));
    EXPECT_EQ(bytes, "cdef");
    // An unterminated last line is still returned, and consumed.
    EXPECT_FALSE(in.line(line));
    EXPECT_EQ(line, "gh");
    EXPECT_EQ(in.remaining(), 0u);
    EXPECT_FALSE(in.bytes(0, bytes));
}

TEST(TextCursor, HexFloatsRoundTripBitForBit)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double denorm_min = std::numeric_limits<double>::denorm_min();
    for (double v : {0.0, -0.0, denorm_min, -denorm_min,
                     std::nextafter(DBL_MIN, 0.0), DBL_MIN, DBL_MAX,
                     -DBL_MAX, inf, -inf})
        expectHexFloatRoundTrip(v);
    // Every other bit pattern, seeded; NaNs have no one "%a" spelling.
    SplitMix64 rng(0x6873702d666c74ULL);
    for (int n = 0; n < 100000;) {
        uint64_t b = rng.next();
        double v = 0.0;
        std::memcpy(&v, &b, sizeof(v));
        if (std::isnan(v))
            continue;
        expectHexFloatRoundTrip(v);
        ++n;
    }
}

TEST(TextCursor, DoublesAgreeWithStrtodOnWholeTokens)
{
    for (const char *tok :
         {"1.5", "-2.25e-3", "+1.5", ".5", "5.", "00012", "1e308",
          "+0x1.8p+1", "-0x1p-1074", "0X1P0", "0x.8p1", "0x1.8", "inf",
          "-inf", "+inf", "INF", "infinity", "nan", "-nan", "NaN",
          "nan(123)"}) {
        char *end = nullptr;
        double want = std::strtod(tok, &end);
        ASSERT_EQ(*end, '\0') << tok;
        double got = 0.0;
        ASSERT_TRUE(TextCursor::parseDouble(tok, got)) << tok;
        EXPECT_EQ(bitsOf(got), bitsOf(want)) << tok;
    }
    for (const char *tok : {"0x", "-0x-1p0", "0x1p", "1e", "+-1", "",
                            "--1", "0xinf", "0x+1p0", "0x1p+-1", "1e+-1",
                            "1e5x", "1_0", "nan("}) {
        char *end = nullptr;
        std::strtod(tok, &end);
        EXPECT_TRUE(end == tok || *end != '\0') << tok;
        double got = 0.0;
        EXPECT_FALSE(TextCursor::parseDouble(tok, got)) << tok;
    }
}

TEST(TextCursor, OutOfRangeDoublesReadAsStrtodReadsThem)
{
    // std::from_chars reports result_out_of_range for these, where
    // strtod returns +-HUGE_VAL or a value rounded toward zero. The
    // istream reader before the cursor went through strtod, so the
    // cursor keeps strtod's values: overflow is an infinity and
    // underflow a (signed) zero, both accepted.
    const double inf = std::numeric_limits<double>::infinity();
    const struct
    {
        const char *tok;
        double want;
    } cases[] = {{"1e999", inf},      {"-1e999", -inf},
                 {"1e-400", 0.0},     {"-1e-400", -0.0},
                 {"0x1p99999", inf},  {"0x1p-99999", 0.0},
                 {"2.4e-324", 0.0}};
    for (const auto &c : cases) {
        double got = 1.0;
        ASSERT_TRUE(TextCursor::parseDouble(c.tok, got)) << c.tok;
        EXPECT_EQ(bitsOf(got), bitsOf(c.want)) << c.tok;
        EXPECT_EQ(bitsOf(got), bitsOf(std::strtod(c.tok, nullptr)))
            << c.tok;
    }
}

TEST(BitUtil, PowersOfTwo)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(1024));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(12));
}

TEST(BitUtil, Logs)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(255), 7u);
    EXPECT_EQ(floorLog2(256), 8u);
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(255), 8u);
    EXPECT_EQ(ceilLog2(256), 8u);
}

TEST(BitUtil, RoundingAndPopcount)
{
    EXPECT_EQ(roundUp(13, 8), 16u);
    EXPECT_EQ(roundUp(16, 8), 16u);
    EXPECT_EQ(divCeil(9, 4), 3u);
    EXPECT_EQ(divCeil(8, 4), 2u);
    EXPECT_EQ(popCount(0), 0u);
    EXPECT_EQ(popCount(0xFFull), 8u);
    EXPECT_EQ(popCount(~0ull), 64u);
    // Every single bit, every low mask, and seeded random words
    // against the standard count.
    SplitMix64 rng(20261019);
    for (unsigned i = 0; i < 64; ++i) {
        EXPECT_EQ(popCount(1ull << i), 1u);
        EXPECT_EQ(popCount(lowMask(i)), i);
        EXPECT_EQ(popCount(~lowMask(i)), 64u - i);
    }
    for (int i = 0; i < 10000; ++i) {
        const uint64_t v = rng.next();
        ASSERT_EQ(popCount(v), static_cast<unsigned>(std::popcount(v)))
            << std::hex << v;
    }
}

TEST(BitUtil, RingMasks)
{
    static_assert(popCount(0xF0F0ull) == 8);
    EXPECT_EQ(countTrailingZeros(1), 0u);
    EXPECT_EQ(countTrailingZeros(0x8000000000000000ull), 63u);
    EXPECT_EQ(lowMask(0), 0u);
    EXPECT_EQ(lowMask(5), 0x1Full);
    EXPECT_EQ(lowMask(64), ~0ull);
    // 6-bit ring: bit k of the result is bit (k + s) % 6 of the input.
    EXPECT_EQ(rotateRight(0b100001, 0, 6), 0b100001ull);
    EXPECT_EQ(rotateRight(0b100001, 1, 6), 0b110000ull);
    EXPECT_EQ(rotateRight(0b000100, 2, 6), 0b000001ull);
    EXPECT_EQ(rotateRight(0b000001, 5, 6), 0b000010ull);
    EXPECT_EQ(rotateRight(1, 1, 64), 0x8000000000000000ull);
    EXPECT_EQ(rotateRight(0x8000000000000001ull, 63, 64), 3ull);
}

TEST(Random, Deterministic)
{
    SplitMix64 a(42);
    SplitMix64 b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DoublesInUnitInterval)
{
    SplitMix64 rng(7);
    for (int i = 0; i < 1000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Random, UniformRespectsBounds)
{
    SplitMix64 rng(9);
    for (int i = 0; i < 1000; ++i) {
        double d = rng.uniform(-2.0, 3.0);
        EXPECT_GE(d, -2.0);
        EXPECT_LT(d, 3.0);
    }
}

TEST(Random, GaussianHasReasonableMoments)
{
    SplitMix64 rng(11);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double g = rng.nextGaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Random, HashStringDiffersForDifferentInputs)
{
    EXPECT_NE(hashString("a"), hashString("b"));
    EXPECT_EQ(hashString("kernel"), hashString("kernel"));
}

TEST(Logging, FatalThrowsWithMessage)
{
    try {
        fatal("bad thing ", 42);
        FAIL() << "fatal() must throw";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "bad thing 42");
    }
}

TEST(Logging, LevelFilters)
{
    Logger::instance().setLevel(LogLevel::Quiet);
    // Must not crash and must be a no-op at Quiet.
    inform("hidden");
    warn("hidden");
    Logger::instance().setLevel(LogLevel::Warn);
}

TEST(Logging, ConcurrentWarningsStayWholeLines)
{
    // Workers warn concurrently (e.g. steady solves of a governed
    // sweep); every line must reach stderr whole.
    constexpr int threads = 8;
    constexpr int per_thread = 200;
    std::ostringstream captured;
    std::streambuf *saved = std::cerr.rdbuf(captured.rdbuf());
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t)
        workers.emplace_back([t] {
            for (int i = 0; i < per_thread; ++i)
                warn("t", t, "-", i);
        });
    for (std::thread &w : workers)
        w.join();
    std::cerr.rdbuf(saved);

    const std::regex whole(R"(^\[gpusimpow:warn\] t\d+-\d+$)");
    std::istringstream lines(captured.str());
    std::string line;
    int count = 0;
    while (std::getline(lines, line)) {
        EXPECT_TRUE(std::regex_match(line, whole)) << line;
        ++count;
    }
    EXPECT_EQ(count, threads * per_thread);
}
