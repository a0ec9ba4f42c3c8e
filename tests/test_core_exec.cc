/**
 * @file
 * Functional-execution tests of the SIMT core: every opcode, the
 * stack-based divergence mechanism (nested branches, loops with
 * non-uniform trip counts, EXIT inside divergent paths), barriers
 * with shared memory, predication, and atomics. All run on a tiny
 * one-core GPU so each test is fast and deterministic.
 */

#include <gtest/gtest.h>

#include "perf/gpu.hh"
#include "perf/kernel.hh"

using namespace gpusimpow;
using namespace gpusimpow::perf;

namespace {

Operand R(unsigned r) { return Operand::reg(r); }
Operand I(uint32_t v) { return Operand::imm(v); }
Operand F(float v) { return Operand::immf(v); }
Operand S(SpecialReg s) { return Operand::special(s); }

GpuConfig
tinyGpu()
{
    GpuConfig cfg = GpuConfig::gt240();
    cfg.clusters = 1;
    cfg.cores_per_cluster = 1;
    return cfg;
}

/** Run a kernel on a 1-core GPU and return the result buffer. */
std::vector<uint32_t>
runKernel(const KernelProgram &prog, unsigned threads,
          uint32_t out_addr, unsigned out_words,
          const std::function<void(Gpu &)> &setup = nullptr,
          unsigned blocks = 1)
{
    GpuConfig cfg = tinyGpu();
    Gpu gpu(cfg);
    if (setup)
        setup(gpu);
    LaunchConfig lc;
    lc.grid = {blocks, 1};
    lc.block = {threads, 1};
    gpu.run(prog, lc);
    std::vector<uint32_t> out(out_words);
    gpu.memcpyToHost(out.data(), out_addr, out_words * 4);
    return out;
}

constexpr uint32_t out_base = 0x10000;

/** Emit "store r_src at out[gtid]" and exit. */
void
emitStoreResult(KernelBuilder &b, unsigned src)
{
    b.imad(14, S(SpecialReg::CtaIdX), S(SpecialReg::NTidX),
           S(SpecialReg::TidX));
    b.imad(14, R(14), I(4), I(out_base));
    b.stg(R(14), R(src));
    b.exit();
}

} // namespace

TEST(Exec, IntegerAluOps)
{
    KernelBuilder b("int_ops", 16);
    b.mov(0, S(SpecialReg::TidX));
    b.iadd(1, R(0), I(100));       // tid + 100
    b.imul(2, R(1), I(3));         // *3
    b.isub(2, R(2), I(5));         // -5
    b.ishl(3, R(2), I(2));         // <<2
    b.ishr(3, R(3), I(1));         // >>1
    b.iand(4, R(3), I(0xFF));
    b.ior(4, R(4), I(0x100));
    b.ixor(4, R(4), I(0x3));
    emitStoreResult(b, 4);
    auto out = runKernel(b.finish(), 8, out_base, 8);
    for (uint32_t tid = 0; tid < 8; ++tid) {
        uint32_t v = (tid + 100) * 3 - 5;
        v = (v << 2) >> 1;
        v = ((v & 0xFF) | 0x100) ^ 0x3;
        EXPECT_EQ(out[tid], v) << "tid " << tid;
    }
}

TEST(Exec, ImadAndMinMax)
{
    KernelBuilder b("imad", 16);
    b.mov(0, S(SpecialReg::TidX));
    b.imad(1, R(0), I(7), I(13));
    b.imin(2, R(1), I(30));
    b.imax(2, R(2), I(17));
    emitStoreResult(b, 2);
    auto out = runKernel(b.finish(), 8, out_base, 8);
    for (uint32_t tid = 0; tid < 8; ++tid) {
        int32_t v = static_cast<int32_t>(tid * 7 + 13);
        v = std::max(std::min(v, 30), 17);
        EXPECT_EQ(out[tid], static_cast<uint32_t>(v));
    }
}

TEST(Exec, SignedMinMaxHandleNegatives)
{
    KernelBuilder b("smin", 16);
    b.mov(0, S(SpecialReg::TidX));
    b.isub(1, I(0), R(0));          // -tid
    b.imin(2, R(1), I(0));          // min(-tid, 0) = -tid
    b.imax(3, R(1), I(0));          // max(-tid, 0) = 0
    b.iadd(4, R(2), R(3));
    emitStoreResult(b, 4);
    auto out = runKernel(b.finish(), 4, out_base, 4);
    for (uint32_t tid = 0; tid < 4; ++tid)
        EXPECT_EQ(out[tid], static_cast<uint32_t>(-(int)tid));
}

TEST(Exec, FloatOps)
{
    KernelBuilder b("fp_ops", 16);
    b.mov(0, S(SpecialReg::TidX));
    b.i2f(1, R(0));
    b.fadd(2, R(1), F(0.5f));
    b.fmul(2, R(2), F(2.0f));
    b.ffma(3, R(2), F(3.0f), F(1.0f));
    b.fsub(3, R(3), F(2.0f));
    b.fmin(4, R(3), F(50.0f));
    b.fmax(4, R(4), F(1.0f));
    b.f2i(5, R(4));
    emitStoreResult(b, 5);
    auto out = runKernel(b.finish(), 8, out_base, 8);
    for (uint32_t tid = 0; tid < 8; ++tid) {
        float f = (static_cast<float>(tid) + 0.5f) * 2.0f;
        f = f * 3.0f + 1.0f - 2.0f;
        f = std::max(std::min(f, 50.0f), 1.0f);
        EXPECT_EQ(out[tid], static_cast<uint32_t>(
                                static_cast<int32_t>(f)));
    }
}

TEST(Exec, SfuOps)
{
    KernelBuilder b("sfu", 16);
    b.mov(0, S(SpecialReg::TidX));
    b.i2f(1, R(0));
    b.fadd(1, R(1), F(1.0f));      // x = tid+1
    b.rcp(2, R(1));
    b.fsqrt(3, R(1));
    b.rsqrt(4, R(1));
    b.ex2(5, R(1));
    b.lg2(6, R(5));                // lg2(2^x) == x
    b.fsin(7, R(1));
    b.fcos(8, R(1));
    // result = rcp*sqrt*rsqrt + lg2 ( == 1/x * sqrt(x) * 1/sqrt(x) + x )
    b.fmul(9, R(2), R(3));
    b.fmul(9, R(9), R(4));
    b.fadd(9, R(9), R(6));
    // pack sin^2+cos^2 (must be ~1) into the result as well
    b.fmul(10, R(7), R(7));
    b.ffma(10, R(8), R(8), R(10));
    b.fadd(9, R(9), R(10));
    b.fmul(9, R(9), F(1024.0f));
    b.f2i(11, R(9));
    emitStoreResult(b, 11);
    auto out = runKernel(b.finish(), 4, out_base, 4);
    for (uint32_t tid = 0; tid < 4; ++tid) {
        float x = static_cast<float>(tid) + 1.0f;
        float want = (1.0f / x + x + 1.0f) * 1024.0f;
        EXPECT_NEAR(static_cast<float>(out[tid]), want,
                    want * 2e-3f + 2.0f)
            << "tid " << tid;
    }
}

TEST(Exec, SetpSelpAllComparisons)
{
    KernelBuilder b("setp", 16);
    b.mov(0, S(SpecialReg::TidX));
    uint32_t acc = 12;
    b.mov(acc, I(0));
    struct Case
    {
        Cmp cmp;
        uint32_t bit;
    };
    Case cases[] = {{Cmp::EQ, 1}, {Cmp::NE, 2},  {Cmp::LT, 4},
                    {Cmp::LE, 8}, {Cmp::GT, 16}, {Cmp::GE, 32}};
    for (const Case &c : cases) {
        b.setp(0, c.cmp, CmpType::U32, R(0), I(2));
        b.selp(1, 0, I(c.bit), I(0));
        b.ior(acc, R(acc), R(1));
    }
    emitStoreResult(b, acc);
    auto out = runKernel(b.finish(), 4, out_base, 4);
    for (uint32_t tid = 0; tid < 4; ++tid) {
        uint32_t want = 0;
        if (tid == 2) want |= 1;
        if (tid != 2) want |= 2;
        if (tid < 2) want |= 4;
        if (tid <= 2) want |= 8;
        if (tid > 2) want |= 16;
        if (tid >= 2) want |= 32;
        EXPECT_EQ(out[tid], want) << "tid " << tid;
    }
}

TEST(Exec, FloatComparison)
{
    KernelBuilder b("fsetp", 16);
    b.mov(0, S(SpecialReg::TidX));
    b.i2f(1, R(0));
    b.setp(0, Cmp::GT, CmpType::F32, R(1), F(1.5f));
    b.selp(2, 0, I(111), I(222));
    emitStoreResult(b, 2);
    auto out = runKernel(b.finish(), 4, out_base, 4);
    EXPECT_EQ(out[0], 222u);
    EXPECT_EQ(out[1], 222u);
    EXPECT_EQ(out[2], 111u);
    EXPECT_EQ(out[3], 111u);
}

TEST(Exec, PredicatedExecutionMasksLanes)
{
    KernelBuilder b("pred", 16);
    b.mov(0, S(SpecialReg::TidX));
    b.mov(1, I(7));
    b.setp(0, Cmp::LT, CmpType::U32, R(0), I(2));
    b.pred(0).mov(1, I(99));              // only tid 0,1
    b.pred(0, true).iadd(1, R(1), I(1));  // only tid >= 2: 7+1
    emitStoreResult(b, 1);
    auto out = runKernel(b.finish(), 4, out_base, 4);
    EXPECT_EQ(out[0], 99u);
    EXPECT_EQ(out[1], 99u);
    EXPECT_EQ(out[2], 8u);
    EXPECT_EQ(out[3], 8u);
}

TEST(Exec, SimpleDivergenceIfElse)
{
    KernelBuilder b("ifelse", 16);
    b.mov(0, S(SpecialReg::TidX));
    auto else_l = b.newLabel();
    auto end_l = b.newLabel();
    b.setp(0, Cmp::GE, CmpType::U32, R(0), I(16));
    b.braIf(0, false, else_l, end_l);
    b.mov(1, I(10));                 // then: tid < 16
    b.jump(end_l);
    b.bind(else_l);
    b.mov(1, I(20));                 // else: tid >= 16
    b.bind(end_l);
    b.iadd(1, R(1), R(0));
    emitStoreResult(b, 1);
    auto out = runKernel(b.finish(), 32, out_base, 32);
    for (uint32_t tid = 0; tid < 32; ++tid)
        EXPECT_EQ(out[tid], (tid < 16 ? 10u : 20u) + tid);
}

TEST(Exec, NestedDivergence)
{
    KernelBuilder b("nested", 16);
    b.mov(0, S(SpecialReg::TidX));
    b.mov(1, I(0));
    auto outer_else = b.newLabel();
    auto outer_end = b.newLabel();
    auto inner_else = b.newLabel();
    auto inner_end = b.newLabel();
    // if (tid < 16) { if (tid < 8) r1=1 else r1=2 } else r1=3
    b.setp(0, Cmp::GE, CmpType::U32, R(0), I(16));
    b.braIf(0, false, outer_else, outer_end);
    b.setp(1, Cmp::GE, CmpType::U32, R(0), I(8));
    b.braIf(1, false, inner_else, inner_end);
    b.mov(1, I(1));
    b.jump(inner_end);
    b.bind(inner_else);
    b.mov(1, I(2));
    b.bind(inner_end);
    b.jump(outer_end);
    b.bind(outer_else);
    b.mov(1, I(3));
    b.bind(outer_end);
    emitStoreResult(b, 1);
    auto out = runKernel(b.finish(), 32, out_base, 32);
    for (uint32_t tid = 0; tid < 32; ++tid) {
        uint32_t want = tid < 8 ? 1 : (tid < 16 ? 2 : 3);
        EXPECT_EQ(out[tid], want) << "tid " << tid;
    }
}

TEST(Exec, LoopWithNonUniformTripCount)
{
    // Each thread sums 1..tid with a data-dependent trip count:
    // exercises divergent backward branches and reconvergence.
    KernelBuilder b("varloop", 16);
    b.mov(0, S(SpecialReg::TidX));
    b.mov(1, I(0));   // acc
    b.mov(2, I(1));   // i
    auto loop = b.newLabel();
    auto done = b.newLabel();
    b.bind(loop);
    b.setp(0, Cmp::GT, CmpType::U32, R(2), R(0));
    b.braIf(0, false, done, done);
    b.iadd(1, R(1), R(2));
    b.iadd(2, R(2), I(1));
    b.jump(loop);
    b.bind(done);
    emitStoreResult(b, 1);
    auto out = runKernel(b.finish(), 32, out_base, 32);
    for (uint32_t tid = 0; tid < 32; ++tid)
        EXPECT_EQ(out[tid], tid * (tid + 1) / 2) << "tid " << tid;
}

TEST(Exec, ExitInsideDivergentPath)
{
    // Odd threads exit early and never store.
    KernelBuilder b("early_exit", 16);
    b.mov(0, S(SpecialReg::TidX));
    auto cont = b.newLabel();
    b.iand(1, R(0), I(1));
    b.setp(0, Cmp::EQ, CmpType::U32, R(1), I(0));
    b.braIf(0, false, cont, cont);
    b.exit();                        // odd threads
    b.bind(cont);
    b.mov(2, I(77));
    emitStoreResult(b, 2);
    auto out = runKernel(b.finish(), 8, out_base, 8);
    for (uint32_t tid = 0; tid < 8; ++tid)
        EXPECT_EQ(out[tid], tid % 2 == 0 ? 77u : 0u);
}

TEST(Exec, BarrierOrdersSharedMemory)
{
    // Thread t writes smem[t]; after the barrier thread t reads
    // smem[(t+1) % n]: any missing synchronization is visible.
    const unsigned n = 64;
    KernelBuilder b("barrier", 16, n * 4);
    b.mov(0, S(SpecialReg::TidX));
    b.imul(1, R(0), I(4));
    b.imad(2, R(0), I(13), I(5));   // value = 13 tid + 5
    b.sts(R(1), R(2));
    b.bar();
    b.iadd(3, R(0), I(1));
    b.iand(3, R(3), I(n - 1));
    b.imul(3, R(3), I(4));
    b.lds(4, R(3));
    emitStoreResult(b, 4);
    auto out = runKernel(b.finish(), n, out_base, n);
    for (uint32_t tid = 0; tid < n; ++tid)
        EXPECT_EQ(out[tid], 13 * ((tid + 1) % n) + 5);
}

TEST(Exec, GlobalAtomicsAccumulate)
{
    const uint32_t counter = 0x20000;
    KernelBuilder b("atom", 16);
    b.atomgAdd(1, I(counter), I(1));
    // Also store the observed old value (must be unique per thread).
    emitStoreResult(b, 1);
    auto out = runKernel(b.finish(), 64, out_base, 64, nullptr, 2);
    GpuConfig cfg = tinyGpu();
    // 2 blocks x 64 threads incremented by 1 each.
    std::vector<bool> seen(128, false);
    for (uint32_t v : out) {
        ASSERT_LT(v, 128u);
        // Old values within the first block's window must be unique.
        EXPECT_FALSE(seen[v]);
        seen[v] = true;
    }
}

TEST(Exec, ConstantMemoryBroadcast)
{
    KernelBuilder b("ldc", 16);
    b.ldc(1, I(64));
    b.mov(0, S(SpecialReg::TidX));
    b.iadd(1, R(1), R(0));
    emitStoreResult(b, 1);
    auto out = runKernel(
        b.finish(), 8, out_base, 8, [](Gpu &gpu) {
            uint32_t v = 4242;
            gpu.constMem().write(64, &v, 4);
        });
    for (uint32_t tid = 0; tid < 8; ++tid)
        EXPECT_EQ(out[tid], 4242u + tid);
}

TEST(Exec, DivergentConstantLoadTagChecksEveryDistinctAddress)
{
    // Lanes 0 and 1 read A, lane 2 reads B (another cache line):
    // the one divergent LDC must tag-check both A and B, so B is
    // cached and a repeat load of B hits.
    const uint32_t a = 64, b = 512;
    auto constMisses = [&](bool reload_b) {
        KernelBuilder kb("ldc_divergent", 16);
        kb.ishr(0, S(SpecialReg::TidX), I(1));
        kb.imad(0, R(0), I(b - a), I(a));
        kb.ldc(1, R(0));
        if (reload_b)
            kb.ldc(2, I(b));
        kb.exit();
        Gpu gpu(tinyGpu());
        uint32_t v[2] = {11, 22};
        gpu.constMem().write(a, &v[0], 4);
        gpu.constMem().write(b, &v[1], 4);
        LaunchConfig lc;
        lc.grid = {1, 1};
        lc.block = {3, 1};
        RunResult r = gpu.run(kb.finish(), lc);
        EXPECT_EQ(r.activity.sumCores(&CoreActivity::const_reads),
                  reload_b ? 3u : 2u);
        return r.activity.sumCores(&CoreActivity::const_misses);
    };
    EXPECT_EQ(constMisses(false), 2u);
    EXPECT_EQ(constMisses(true), 2u);
}

TEST(Exec, SpecialRegisters2D)
{
    KernelBuilder b("sregs", 16);
    // out = tidy * 1000 + tidx for a 4x4 block
    b.imul(1, S(SpecialReg::TidY), I(1000));
    b.iadd(1, R(1), S(SpecialReg::TidX));
    b.imad(14, S(SpecialReg::TidY), S(SpecialReg::NTidX),
           S(SpecialReg::TidX));
    b.imad(14, R(14), I(4), I(out_base));
    b.stg(R(14), R(1));
    b.exit();
    GpuConfig cfg = tinyGpu();
    Gpu gpu(cfg);
    LaunchConfig lc;
    lc.grid = {1, 1};
    lc.block = {4, 4};
    gpu.run(b.finish(), lc);
    std::vector<uint32_t> out(16);
    gpu.memcpyToHost(out.data(), out_base, 16 * 4);
    for (uint32_t y = 0; y < 4; ++y)
        for (uint32_t x = 0; x < 4; ++x)
            EXPECT_EQ(out[y * 4 + x], y * 1000 + x);
}

TEST(Exec, LaneIdAndWarpId)
{
    KernelBuilder b("lane", 16);
    b.imul(1, S(SpecialReg::WarpId), I(100));
    b.iadd(1, R(1), S(SpecialReg::LaneId));
    emitStoreResult(b, 1);
    auto out = runKernel(b.finish(), 96, out_base, 96);
    for (uint32_t tid = 0; tid < 96; ++tid)
        EXPECT_EQ(out[tid], (tid / 32) * 100 + tid % 32);
}

TEST(ExecDeathTest, OutOfBudgetRegistersAbort)
{
    // A register past regs_per_thread would alias another warp's: a
    // source is rejected when the kernel is bound, a destination
    // before its first lane write.
    KernelBuilder src("bad_src", 4);
    src.iadd(0, R(4), I(1));
    EXPECT_DEATH(runKernel(src.finish(), 32, out_base, 1),
                 "source register 4 out of budget");
    KernelBuilder dst("bad_dst", 4);
    dst.mov(4, I(1));
    EXPECT_DEATH(runKernel(dst.finish(), 32, out_base, 1),
                 "register 4 out of budget");
}

TEST(Exec, MultipleBlocksCoverGrid)
{
    KernelBuilder b("grid", 16);
    b.imad(1, S(SpecialReg::CtaIdX), S(SpecialReg::NTidX),
           S(SpecialReg::TidX));
    b.imul(2, R(1), I(3));
    emitStoreResult(b, 2);
    auto out = runKernel(b.finish(), 64, out_base, 64 * 6, nullptr, 6);
    for (uint32_t g = 0; g < 64 * 6; ++g)
        EXPECT_EQ(out[g], g * 3);
}

TEST(Exec, GuardedMemoryOpsDoNotTouchMemory)
{
    KernelBuilder b("guarded_st", 16);
    b.mov(0, S(SpecialReg::TidX));
    b.setp(0, Cmp::LT, CmpType::U32, R(0), I(2));
    b.imad(1, R(0), I(4), I(out_base));
    b.mov(2, I(55));
    b.pred(0).stg(R(1), R(2));   // only tids 0 and 1 store
    b.exit();
    auto out = runKernel(b.finish(), 8, out_base, 8);
    EXPECT_EQ(out[0], 55u);
    EXPECT_EQ(out[1], 55u);
    for (uint32_t tid = 2; tid < 8; ++tid)
        EXPECT_EQ(out[tid], 0u);
}
