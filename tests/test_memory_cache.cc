/**
 * @file
 * Unit tests for the functional memories, the cache model, and the
 * coalescing / bank-conflict analysis.
 */

#include <gtest/gtest.h>

#include "perf/cache.hh"
#include "perf/coalescer.hh"
#include "perf/memory.hh"

using namespace gpusimpow;
using namespace gpusimpow::perf;

TEST(GlobalMemoryTest, ZeroFilledByDefault)
{
    GlobalMemory m;
    EXPECT_EQ(m.load32(0x1234 & ~3u), 0u);
    EXPECT_EQ(m.pageCount(), 0u);   // reads allocate nothing
}

TEST(GlobalMemoryTest, StoreLoadRoundTrip)
{
    GlobalMemory m;
    m.store32(0x100, 0xDEADBEEF);
    EXPECT_EQ(m.load32(0x100), 0xDEADBEEFu);
    m.storeF32(0x104, 2.5f);
    EXPECT_EQ(m.loadF32(0x104), 2.5f);
}

TEST(GlobalMemoryTest, BulkCopyCrossesPages)
{
    GlobalMemory m;
    std::vector<uint32_t> data(40000);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint32_t>(i * 3);
    // 160 KB starting near a 64 KB page end: spans 3+ pages.
    uint32_t base = 0xFFF0;
    m.write(base, data.data(), data.size() * 4);
    std::vector<uint32_t> back(data.size());
    m.read(base, back.data(), back.size() * 4);
    EXPECT_EQ(back, data);
    EXPECT_GE(m.pageCount(), 3u);
}

TEST(GlobalAllocatorTest, AlignsTo256)
{
    GlobalAllocator a;
    uint32_t x = a.alloc(100);
    uint32_t y = a.alloc(1);
    EXPECT_EQ(x % 256, 0u);
    EXPECT_EQ(y - x, 256u);
}

TEST(SharedMemoryTest, RoundTrip)
{
    SharedMemory s(1024);
    s.store32(0, 7);
    s.store32(1020, 9);
    EXPECT_EQ(s.load32(0), 7u);
    EXPECT_EQ(s.load32(1020), 9u);
    EXPECT_EQ(s.size(), 1024u);
}

TEST(ConstantMemoryTest, WriteAndLoad)
{
    ConstantMemory c;
    uint32_t v = 42;
    c.write(128, &v, 4);
    EXPECT_EQ(c.load32(128), 42u);
    EXPECT_EQ(c.load32(132), 0u);
}

// ---- Cache model ----

TEST(CacheModelTest, ColdMissThenHit)
{
    CacheModel c({1024, 64, 2, false});
    EXPECT_FALSE(c.access(0, false));
    EXPECT_TRUE(c.access(0, false));
    EXPECT_TRUE(c.access(63, false));    // same line
    EXPECT_FALSE(c.access(64, false));   // next line
    EXPECT_EQ(c.accesses(), 4u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(CacheModelTest, LruEviction)
{
    // 2-way, 64 B lines, 2 sets (256 B total).
    CacheModel c({256, 64, 2, false});
    EXPECT_EQ(c.numSets(), 2u);
    // Three lines mapping to set 0: 0, 128, 256.
    c.access(0, false);
    c.access(128, false);
    c.access(0, false);      // touch 0: 128 becomes LRU
    c.access(256, false);    // evicts 128
    EXPECT_TRUE(c.access(0, false));
    EXPECT_FALSE(c.access(128, false));
}

TEST(CacheModelTest, WriteAroundPolicy)
{
    CacheModel c({1024, 64, 2, false});
    EXPECT_FALSE(c.access(0, true));    // write miss, no allocate
    EXPECT_FALSE(c.access(0, false));   // still missing
}

TEST(CacheModelTest, WriteAllocatePolicy)
{
    CacheModel c({1024, 64, 2, true});
    EXPECT_FALSE(c.access(0, true));
    EXPECT_TRUE(c.access(0, false));    // allocated by the write
}

TEST(CacheModelTest, FlushInvalidatesAll)
{
    CacheModel c({1024, 64, 2, false});
    c.access(0, false);
    c.flush();
    EXPECT_FALSE(c.access(0, false));
}

/** Property sweep: structural invariants over geometries. */
class CacheSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(CacheSweep, MissesBoundedAndCapacityRespected)
{
    auto [size, assoc] = GetParam();
    CacheModel c({size, 64, assoc, false});
    unsigned lines = size / 64;
    // Touch exactly `lines` distinct lines: all miss, then all hit.
    for (unsigned i = 0; i < lines; ++i)
        c.access(static_cast<uint64_t>(i) * 64, false);
    EXPECT_EQ(c.misses(), lines);
    for (unsigned i = 0; i < lines; ++i)
        EXPECT_TRUE(c.access(static_cast<uint64_t>(i) * 64, false));
    EXPECT_EQ(c.misses(), lines);
    EXPECT_LE(c.misses(), c.accesses());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheSweep,
    ::testing::Combine(::testing::Values(1024u, 8192u, 65536u),
                       ::testing::Values(1u, 2u, 4u, 8u)));

// ---- Coalescer ----

TEST(CoalescerTest, UnitStrideMergesToOneLinePerSegment)
{
    std::vector<uint32_t> addrs;
    for (uint32_t i = 0; i < 32; ++i)
        addrs.push_back(0x1000 + i * 4);
    std::vector<uint32_t> segs;
    EXPECT_EQ(coalesce(addrs, 128, segs), 1u);
    EXPECT_EQ(segs[0], 0x1000u);
}

TEST(CoalescerTest, StridedAccessSplits)
{
    std::vector<uint32_t> addrs;
    for (uint32_t i = 0; i < 32; ++i)
        addrs.push_back(i * 128);
    std::vector<uint32_t> segs;
    EXPECT_EQ(coalesce(addrs, 128, segs), 32u);
}

TEST(CoalescerTest, SameAddressBroadcasts)
{
    std::vector<uint32_t> addrs(32, 0x2000);
    std::vector<uint32_t> segs;
    EXPECT_EQ(coalesce(addrs, 128, segs), 1u);
}

TEST(CoalescerTest, MisalignedRunTouchesTwoLines)
{
    std::vector<uint32_t> addrs;
    for (uint32_t i = 0; i < 32; ++i)
        addrs.push_back(0x1040 + i * 4);   // straddles 0x1000/0x1080
    std::vector<uint32_t> segs;
    EXPECT_EQ(coalesce(addrs, 128, segs), 2u);
}

TEST(SmemConflictTest, UnitStrideIsConflictFree)
{
    std::vector<uint32_t> addrs;
    for (uint32_t i = 0; i < 16; ++i)
        addrs.push_back(i * 4);
    std::vector<uint32_t> scratch;
    BankConflictInfo info = analyzeSmemAccess(addrs, 16, scratch);
    EXPECT_EQ(info.serialization, 1u);
    EXPECT_EQ(info.distinct_words, 16u);
}

TEST(SmemConflictTest, SameWordBroadcasts)
{
    std::vector<uint32_t> addrs(32, 64);
    std::vector<uint32_t> scratch;
    BankConflictInfo info = analyzeSmemAccess(addrs, 16, scratch);
    EXPECT_EQ(info.distinct_words, 1u);
    EXPECT_EQ(info.serialization, 1u);
}

TEST(SmemConflictTest, PowerOfTwoStrideConflicts)
{
    // Stride of 16 words with 16 banks: every access hits bank 0.
    std::vector<uint32_t> addrs;
    for (uint32_t i = 0; i < 8; ++i)
        addrs.push_back(i * 16 * 4);
    std::vector<uint32_t> scratch;
    BankConflictInfo info = analyzeSmemAccess(addrs, 16, scratch);
    EXPECT_EQ(info.serialization, 8u);
}

TEST(SmemConflictTest, TwoWayConflict)
{
    // Stride of 8 words with 16 banks: pairs collide.
    std::vector<uint32_t> addrs;
    for (uint32_t i = 0; i < 16; ++i)
        addrs.push_back(i * 8 * 4);
    std::vector<uint32_t> scratch;
    BankConflictInfo info = analyzeSmemAccess(addrs, 16, scratch);
    EXPECT_EQ(info.serialization, 8u);
    EXPECT_EQ(info.distinct_words, 16u);
}

TEST(SmemConflictTest, UnevenBanksAndADirtyScratch)
{
    // Banks 0 (three words, one broadcast twice), 3 (two words) and
    // 5 (one word); the scratch holds an earlier call's leftovers.
    std::vector<uint32_t> addrs = {0, 64, 64, 128, 12, 76, 20};
    std::vector<uint32_t> scratch = {7, 7, 7, 7, 7, 7, 7, 7, 7};
    BankConflictInfo info = analyzeSmemAccess(addrs, 16, scratch);
    EXPECT_EQ(info.distinct_words, 6u);
    EXPECT_EQ(info.serialization, 3u);
    info = analyzeSmemAccess({4}, 16, scratch);
    EXPECT_EQ(info.distinct_words, 1u);
    EXPECT_EQ(info.serialization, 1u);
}

TEST(DistinctAddressesTest, CountsUnique)
{
    std::vector<uint32_t> scratch;
    EXPECT_EQ(distinctAddresses({1, 1, 1}, scratch), 1u);
    EXPECT_EQ(distinctAddresses({1, 2, 3, 2}, scratch), 3u);
    EXPECT_EQ(distinctAddresses({}, scratch), 0u);
}
