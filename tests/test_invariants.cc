/**
 * @file
 * Invariant-violation tests: the panic() discipline (internal bugs
 * abort; user errors throw FatalError) and the microbenchmark
 * generators' structural guarantees.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "perf/activity.hh"
#include "perf/cache.hh"
#include "perf/memory.hh"
#include "workloads/microbench.hh"

using namespace gpusimpow;

TEST(PanicDiscipline, SharedMemoryBoundsAbort)
{
    perf::SharedMemory smem(256);
    EXPECT_DEATH(smem.store32(256, 1), "bad shared store");
    EXPECT_DEATH(smem.load32(1024), "bad shared load");
    EXPECT_DEATH(smem.load32(2), "bad shared load");   // unaligned
}

TEST(PanicDiscipline, ConstantMemoryOverflowAborts)
{
    perf::ConstantMemory cmem;
    uint32_t v = 0;
    EXPECT_DEATH(cmem.write(65536 - 2, &v, 4), "overflow");
}

TEST(PanicDiscipline, UnalignedGlobalAccessAborts)
{
    perf::GlobalMemory gmem;
    EXPECT_DEATH(gmem.load32(2), "unaligned");
    EXPECT_DEATH(gmem.store32(5, 1), "unaligned");
}

TEST(PanicDiscipline, NonPowerOfTwoCacheSetsAbort)
{
    // 3 sets: not a power of two.
    EXPECT_DEATH(perf::CacheModel({3 * 64 * 2, 64, 2, false}),
                 "power of two");
}

TEST(PanicDiscipline, MismatchedActivityDiffAborts)
{
    perf::ChipActivity a;
    a.cores.resize(4);
    perf::ChipActivity b;
    b.cores.resize(2);
    EXPECT_DEATH(a.diff(b), "different GPUs");
}

TEST(Microbench, LaneGuardStructure)
{
    perf::KernelProgram p =
        workloads::makeIntMicrobench(10, 31, 0x1000);
    // Body instructions are guarded; loop control is not.
    unsigned guarded = 0;
    unsigned unguarded_int = 0;
    for (const auto &inst : p.code) {
        if (inst.unitClass() == perf::UnitClass::Int) {
            if (inst.guard >= 0)
                ++guarded;
            else
                ++unguarded_int;
        }
    }
    EXPECT_EQ(guarded, workloads::int_body_ops_per_iter);
    EXPECT_GT(unguarded_int, 0u);   // counter updates etc.
}

TEST(Microbench, FpVariantUsesFpUnits)
{
    perf::KernelProgram p =
        workloads::makeFpMicrobench(10, 31, 0x1000);
    unsigned fp = 0;
    for (const auto &inst : p.code) {
        if (inst.unitClass() == perf::UnitClass::Fp && inst.guard >= 0)
            ++fp;
    }
    EXPECT_EQ(fp, workloads::fp_body_ops_per_iter);
}

TEST(Microbench, BadLaneCountIsCaught)
{
    EXPECT_DEATH(workloads::makeIntMicrobench(10, 0, 0x1000),
                 "enabled lanes");
    EXPECT_DEATH(workloads::makeIntMicrobench(10, 33, 0x1000),
                 "enabled lanes");
}
