/**
 * @file
 * Unit tests for the functional memories, the cache model, and the
 * coalescing / bank-conflict analysis.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/random.hh"
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

namespace {

/** Naive oracle: sorted distinct values. */
std::vector<uint32_t>
sortedDistinct(std::vector<uint32_t> v)
{
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
}

/** Warp-sized lane address sets of every shape the coalescer sees:
 *  ascending and shuffled unit stride, duplicated lanes, a full
 *  broadcast, descending, random and partial warps. */
std::vector<std::vector<uint32_t>>
laneAddressSets()
{
    SplitMix64 rng(20261018);
    std::vector<std::vector<uint32_t>> sets;
    for (uint32_t stride : {4u, 8u, 12u, 64u, 128u, 132u}) {
        std::vector<uint32_t> v;
        for (uint32_t lane = 0; lane < 32; ++lane)
            v.push_back(4096 + lane * stride);
        sets.push_back(v); // ascending
        std::vector<uint32_t> shuffled = v;
        for (std::size_t i = shuffled.size(); i > 1; --i)
            std::swap(shuffled[i - 1], shuffled[rng.nextBounded(i)]);
        sets.push_back(shuffled);
        std::reverse(v.begin(), v.end());
        sets.push_back(v); // descending
    }
    for (int round = 0; round < 40; ++round) {
        std::size_t lanes = 1 + rng.nextBounded(32);
        std::vector<uint32_t> v;
        for (std::size_t lane = 0; lane < lanes; ++lane)
            v.push_back(static_cast<uint32_t>(rng.nextBounded(2048)) * 4);
        // Duplicate a few lanes onto others.
        for (std::size_t d = 0; d < lanes / 4; ++d)
            v[rng.nextBounded(lanes)] = v[rng.nextBounded(lanes)];
        sets.push_back(v);
    }
    sets.push_back(std::vector<uint32_t>(32, 8192)); // broadcast
    sets.push_back({});
    return sets;
}

} // namespace

TEST(CoalescerTest, MatchesANaiveSortUniqueReference)
{
    std::vector<uint32_t> out, scratch;
    for (const std::vector<uint32_t> &addrs : laneAddressSets()) {
        for (unsigned seg : {32u, 64u, 128u}) {
            std::vector<uint32_t> segs;
            for (uint32_t a : addrs)
                segs.push_back(a / seg * seg);
            std::vector<uint32_t> want = sortedDistinct(segs);
            EXPECT_EQ(coalesce(addrs, seg, out), want.size());
            // Sorted order: the memory system walks segments in it.
            EXPECT_EQ(out, want);
        }
        std::vector<uint32_t> want = sortedDistinct(addrs);
        EXPECT_EQ(distinctAddresses(addrs, scratch), want.size());
        EXPECT_EQ(scratch, want);
        for (unsigned banks : {16u, 32u, 100u}) {
            std::vector<uint32_t> words;
            for (uint32_t a : addrs)
                words.push_back(a / 4);
            words = sortedDistinct(words);
            std::map<uint32_t, unsigned> load;
            unsigned worst = 1;
            for (uint32_t w : words)
                worst = std::max(worst, ++load[w % banks]);
            BankConflictInfo info = analyzeSmemAccess(addrs, banks, scratch);
            if (addrs.empty()) {
                EXPECT_EQ(info.distinct_words, 0u);
                EXPECT_EQ(info.serialization, 1u);
                continue;
            }
            EXPECT_EQ(info.distinct_words, words.size());
            EXPECT_EQ(info.serialization, worst);
        }
    }
}
