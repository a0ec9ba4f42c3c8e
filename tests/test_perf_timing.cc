/**
 * @file
 * Timing-model and activity-accounting tests: occupancy effects,
 * coalescing and bank-conflict penalties, scheduler policies,
 * counter consistency, and the Fig. 4 breadth-first block placement.
 */

#include <gtest/gtest.h>

#include "perf/gpu.hh"
#include "perf/kernel.hh"
#include "workloads/microbench.hh"
#include "workloads/workload.hh"

using namespace gpusimpow;
using namespace gpusimpow::perf;

namespace {

Operand R(unsigned r) { return Operand::reg(r); }
Operand I(uint32_t v) { return Operand::imm(v); }

constexpr uint32_t sink = 0x40000;

/** Strided global-load kernel: stride in bytes between lanes. */
KernelProgram
makeStridedLoad(unsigned stride_bytes, unsigned iters)
{
    KernelBuilder b("strided", 12);
    b.imad(0, Operand::special(SpecialReg::CtaIdX),
           Operand::special(SpecialReg::NTidX),
           Operand::special(SpecialReg::TidX));
    b.imul(1, R(0), I(stride_bytes));
    b.mov(2, I(0));
    b.mov(5, I(0));
    auto loop = b.newLabel();
    auto done = b.newLabel();
    b.bind(loop);
    b.setp(0, Cmp::GE, CmpType::U32, R(2), I(iters));
    b.braIf(0, false, done, done);
    b.ldg(3, R(1), 0x100000);
    b.iadd(5, R(5), R(3));
    b.iadd(1, R(1), I(65536));
    b.iadd(2, R(2), I(1));
    b.jump(loop);
    b.bind(done);
    b.imad(6, R(0), I(4), I(sink));
    b.stg(R(6), R(5));
    b.exit();
    return b.finish();
}

/** SMEM kernel with configurable word stride (bank conflicts). */
KernelProgram
makeSmemStride(unsigned word_stride, unsigned iters)
{
    KernelBuilder b("smem_stride", 12, 16384);
    b.mov(0, Operand::special(SpecialReg::TidX));
    b.imul(1, R(0), I(word_stride * 4));
    b.iand(1, R(1), I(16383));
    b.mov(2, I(0));
    b.mov(5, I(0));
    auto loop = b.newLabel();
    auto done = b.newLabel();
    b.bind(loop);
    b.setp(0, Cmp::GE, CmpType::U32, R(2), I(iters));
    b.braIf(0, false, done, done);
    b.lds(3, R(1));
    b.iadd(5, R(5), R(3));
    b.sts(R(1), R(5));
    b.iadd(2, R(2), I(1));
    b.jump(loop);
    b.bind(done);
    b.exit();
    return b.finish();
}

} // namespace

TEST(Timing, MoreBlocksFinishFasterPerBlock)
{
    // Fixed total work split across more blocks uses more cores.
    GpuConfig cfg = GpuConfig::gt240();
    Gpu gpu(cfg);
    uint32_t s = gpu.allocator().alloc(1 << 20);
    KernelProgram prog = workloads::makeOccupancyKernel(300, s);
    LaunchConfig one;
    one.grid = {1, 1};
    one.block = {256, 1};
    LaunchConfig twelve;
    twelve.grid = {12, 1};
    twelve.block = {256, 1};
    uint64_t t1 = gpu.run(prog, one).cycles;
    uint64_t t12 = gpu.run(prog, twelve).cycles;
    // 12x the work in less than 2x the time (parallel cores).
    EXPECT_LT(t12, 2 * t1);
}

TEST(Timing, UncoalescedAccessIsSlower)
{
    GpuConfig cfg = GpuConfig::gt240();
    cfg.clusters = 1;
    cfg.cores_per_cluster = 1;
    Gpu gpu(cfg);
    LaunchConfig lc;
    lc.grid = {1, 1};
    lc.block = {128, 1};
    RunResult coalesced = gpu.run(makeStridedLoad(4, 16), lc);
    RunResult scattered = gpu.run(makeStridedLoad(512, 16), lc);
    EXPECT_GT(scattered.cycles, coalesced.cycles * 2);
    uint64_t txn_c = coalesced.activity.cores[0].coalescer_transactions;
    uint64_t txn_s = scattered.activity.cores[0].coalescer_transactions;
    EXPECT_GT(txn_s, 8 * txn_c);
}

TEST(Timing, StepsAndQuietCyclesPartitionResidency)
{
    // A scattered-load kernel on the scoreboarded chip: resident
    // warps wait on DRAM almost all the time, so most core-cycles
    // are accounted without a step — and every resident core-cycle
    // is either a full step or a skipped quiet cycle, never both.
    GpuConfig cfg = GpuConfig::gtx580();
    Gpu gpu(cfg);
    LaunchConfig lc;
    lc.grid = {32, 1};
    lc.block = {256, 1};
    for (double interval_s : {0.0, 1e-6}) {
        RunResult r = gpu.run(
            makeStridedLoad(512, 16), lc,
            [](const ChipActivity &, double, double) {}, interval_s);
        uint64_t resident =
            r.activity.sumCores(&CoreActivity::cycles_resident);
        EXPECT_EQ(r.core_steps + r.quiet_core_cycles, resident);
        EXPECT_GT(r.quiet_core_cycles, 4 * r.core_steps);
    }
}

TEST(Timing, EveryFullStepActs)
{
    // Sampled every cycle, each (core, interval) delta is one cycle of
    // one core, so the deltas that issue, fetch or write back count
    // the steps that act. On GT240 (no scoreboard) that is every full
    // step. On GTX580 a step may also only drain a completion that
    // outlived its warp, such as a store's after EXIT, which records
    // none of the three; those are a small share of the steps.
    for (bool gtx580 : {false, true}) {
        GpuConfig cfg = gtx580 ? GpuConfig::gtx580() : GpuConfig::gt240();
        for (const char *name : {"vectoradd", "hotspot", "scalarprod"}) {
            SCOPED_TRACE(cfg.name + " " + name);
            Gpu gpu(cfg);
            auto wl = workloads::makeWorkload(name);
            uint64_t acting = 0;
            uint64_t steps = 0;
            for (const auto &k : wl->prepare(gpu)) {
                RunResult r = gpu.run(
                    k.prog, k.launch,
                    [&](const ChipActivity &delta, double, double) {
                        for (const CoreActivity &c : delta.cores) {
                            acting += c.issued_insts > 0 ||
                                      c.icache_reads > 0 ||
                                      c.writebacks > 0;
                        }
                    },
                    1e-15);
                steps += r.core_steps;
            }
            ASSERT_GT(steps, 0u);
            if (!gtx580) {
                EXPECT_EQ(acting, steps);
            } else {
                EXPECT_LE(acting, steps);
                EXPECT_LT(steps - acting, steps / 20);
            }
        }
    }
}

TEST(Timing, BankConflictsSerializeSmem)
{
    GpuConfig cfg = GpuConfig::gt240();
    cfg.clusters = 1;
    cfg.cores_per_cluster = 1;
    Gpu gpu(cfg);
    LaunchConfig lc;
    lc.grid = {1, 1};
    lc.block = {128, 1};
    RunResult clean = gpu.run(makeSmemStride(1, 64), lc);
    RunResult conflicted = gpu.run(makeSmemStride(16, 64), lc);
    EXPECT_GT(conflicted.cycles, clean.cycles);
    EXPECT_GT(conflicted.activity.cores[0].smem_conflict_cycles,
              clean.activity.cores[0].smem_conflict_cycles);
}

TEST(Timing, CountersAreConsistent)
{
    GpuConfig cfg = GpuConfig::gt240();
    Gpu gpu(cfg);
    uint32_t s = gpu.allocator().alloc(1 << 20);
    KernelProgram prog = workloads::makeOccupancyKernel(200, s);
    LaunchConfig lc;
    lc.grid = {8, 1};
    lc.block = {256, 1};
    RunResult r = gpu.run(prog, lc);
    CoreActivity total;
    for (const auto &c : r.activity.cores)
        total += c;
    // Every issued instruction was decoded and buffered first.
    EXPECT_LE(total.issued_insts, total.decodes);
    EXPECT_EQ(total.ibuffer_reads, total.issued_insts);
    // Lane ops never exceed warp instructions x warp size.
    EXPECT_LE(total.int_lane_ops, total.int_warp_insts * 32);
    // Unit class counts partition issued instructions.
    EXPECT_EQ(total.int_warp_insts + total.fp_warp_insts +
                  total.sfu_warp_insts + total.mem_warp_insts +
                  total.ctrl_warp_insts,
              total.issued_insts);
    // Misses cannot exceed accesses.
    EXPECT_LE(total.icache_misses, total.icache_reads);
    EXPECT_LE(total.l1_misses, total.l1_reads);
    // Every divergent push eventually pops.
    EXPECT_LE(total.reconv_pops,
              total.reconv_pushes + 64 * lc.grid.count());
}

TEST(Timing, BreadthFirstBlockPlacement)
{
    // With exactly 4 blocks on a 4-cluster GPU, every cluster must
    // light up (the Fig. 4 behaviour).
    GpuConfig cfg = GpuConfig::gt240();
    Gpu gpu(cfg);
    uint32_t s = gpu.allocator().alloc(1 << 20);
    KernelProgram prog = workloads::makeOccupancyKernel(200, s);
    LaunchConfig lc;
    lc.grid = {4, 1};
    lc.block = {256, 1};
    RunResult r = gpu.run(prog, lc);
    for (unsigned cl = 0; cl < cfg.clusters; ++cl) {
        EXPECT_GT(r.activity.cluster_busy_cycles[cl], 0u)
            << "cluster " << cl << " never became busy";
    }
    // And with 1 block, exactly one cluster is busy.
    lc.grid = {1, 1};
    RunResult r1 = gpu.run(prog, lc);
    unsigned busy = 0;
    for (unsigned cl = 0; cl < cfg.clusters; ++cl)
        busy += r1.activity.cluster_busy_cycles[cl] > 0 ? 1 : 0;
    EXPECT_EQ(busy, 1u);
}

TEST(Timing, GreedySchedulerDiffersFromRoundRobin)
{
    auto run = [](const std::string &policy) {
        GpuConfig cfg = GpuConfig::gt240();
        cfg.clusters = 1;
        cfg.cores_per_cluster = 1;
        cfg.core.sched_policy = policy;
        Gpu gpu(cfg);
        LaunchConfig lc;
        lc.grid = {1, 1};
        lc.block = {256, 1};
        return gpu.run(makeStridedLoad(4, 32), lc).cycles;
    };
    uint64_t rr = run("rr");
    uint64_t gto = run("gto");
    // Policies must both complete; they generally differ in cycles.
    EXPECT_GT(rr, 0u);
    EXPECT_GT(gto, 0u);
}

TEST(Timing, ScoreboardOverlapsIndependentWork)
{
    // Independent instruction chains: the scoreboarded (Fermi-like)
    // core should beat the blocking barrel core at equal lane count.
    auto run = [](bool scoreboard) {
        GpuConfig cfg = GpuConfig::gt240();
        cfg.clusters = 1;
        cfg.cores_per_cluster = 1;
        cfg.core.scoreboard = scoreboard;
        Gpu gpu(cfg);
        uint32_t s = gpu.allocator().alloc(1 << 20);
        KernelProgram prog = workloads::makeOccupancyKernel(300, s);
        LaunchConfig lc;
        lc.grid = {1, 1};
        lc.block = {64, 1};   // few warps: latency exposed
        return gpu.run(prog, lc).cycles;
    };
    EXPECT_LT(run(true), run(false));
}

TEST(Timing, SamplerDeliversMonotoneIntervals)
{
    GpuConfig cfg = GpuConfig::gt240();
    Gpu gpu(cfg);
    uint32_t s = gpu.allocator().alloc(1 << 20);
    KernelProgram prog = workloads::makeOccupancyKernel(400, s);
    LaunchConfig lc;
    lc.grid = {12, 1};
    lc.block = {256, 1};
    double last_t1 = 0.0;
    uint64_t sampled_cycles = 0;
    RunResult r = gpu.run(
        prog, lc,
        [&](const ChipActivity &delta, double t0, double t1) {
            EXPECT_GE(t0, last_t1 - 1e-12);
            EXPECT_GT(t1, t0);
            last_t1 = t1;
            sampled_cycles += delta.shader_cycles;
        },
        10e-6);
    EXPECT_EQ(sampled_cycles, r.cycles);
}

TEST(Timing, PcieBytesScopedToKernelWindow)
{
    GpuConfig cfg = GpuConfig::gt240();
    Gpu gpu(cfg);
    uint32_t s = gpu.allocator().alloc(4096);
    std::vector<uint32_t> buf(1024, 1);
    gpu.memcpyToDevice(s, buf.data(), buf.size() * 4);
    KernelProgram prog = workloads::makeOccupancyKernel(100, s);
    LaunchConfig lc;
    lc.grid = {1, 1};
    lc.block = {64, 1};
    RunResult r = gpu.run(prog, lc);
    // The pre-kernel host copy must not be charged to the kernel.
    EXPECT_EQ(r.activity.mem.pcie_bytes, 0u);
}
