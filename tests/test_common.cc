/**
 * @file
 * Unit tests for the common substrate: string utilities, bit
 * utilities, deterministic RNG, and the error-reporting discipline.
 */

#include <gtest/gtest.h>

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
