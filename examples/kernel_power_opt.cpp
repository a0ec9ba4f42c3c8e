/**
 * @file
 * Programmer-facing example (SectionI: "GPGPU programmers gain an
 * effective way to investigate their GPGPU codes ... to optimize
 * power consumption from a software perspective"): three
 * implementations of the same reduction-style computation with
 * different memory behaviour, compared on runtime, power, and — the
 * number a battery- or bill-conscious programmer cares about —
 * energy per kernel.
 */

#include <cstdio>
#include <exception>

#include "common/logging.hh"
#include "sim/simulator.hh"

using namespace gpusimpow;
using namespace gpusimpow::perf;

namespace {

Operand R(unsigned r) { return Operand::reg(r); }
Operand I(uint32_t v) { return Operand::imm(v); }

constexpr unsigned n_elems = 65536;
constexpr uint32_t in_addr = 0x100000;
constexpr uint32_t out_addr = 0x800000;

/**
 * Variant A ("naive"): each thread strides by 1 element through its
 * own contiguous chunk — adjacent threads are 256 B apart, so every
 * warp load splits into many transactions.
 */
KernelProgram
chunkedSum()
{
    const unsigned per_thread = 16;
    KernelBuilder b("sum_chunked", 12);
    b.imad(0, Operand::special(SpecialReg::CtaIdX),
           Operand::special(SpecialReg::NTidX),
           Operand::special(SpecialReg::TidX));
    b.imul(1, R(0), I(per_thread * 4));
    b.iadd(1, R(1), I(in_addr));
    b.mov(2, I(0));
    b.mov(3, I(0));
    auto loop = b.newLabel();
    auto done = b.newLabel();
    b.bind(loop);
    b.setp(0, Cmp::GE, CmpType::U32, R(3), I(per_thread));
    b.braIf(0, false, done, done);
    b.ldg(4, R(1));
    b.iadd(2, R(2), R(4));
    b.iadd(1, R(1), I(4));
    b.iadd(3, R(3), I(1));
    b.jump(loop);
    b.bind(done);
    b.imad(5, R(0), I(4), I(out_addr));
    b.stg(R(5), R(2));
    b.exit();
    return b.finish();
}

/**
 * Variant B ("coalesced"): threads stride by the grid width, so a
 * warp always touches one contiguous 128-byte segment.
 */
KernelProgram
coalescedSum(unsigned total_threads)
{
    const unsigned per_thread = 16;
    KernelBuilder b("sum_coalesced", 12);
    b.imad(0, Operand::special(SpecialReg::CtaIdX),
           Operand::special(SpecialReg::NTidX),
           Operand::special(SpecialReg::TidX));
    b.imad(1, R(0), I(4), I(in_addr));
    b.mov(2, I(0));
    b.mov(3, I(0));
    auto loop = b.newLabel();
    auto done = b.newLabel();
    b.bind(loop);
    b.setp(0, Cmp::GE, CmpType::U32, R(3), I(per_thread));
    b.braIf(0, false, done, done);
    b.ldg(4, R(1));
    b.iadd(2, R(2), R(4));
    b.iadd(1, R(1), I(total_threads * 4));
    b.iadd(3, R(3), I(1));
    b.jump(loop);
    b.bind(done);
    b.imad(5, R(0), I(4), I(out_addr));
    b.stg(R(5), R(2));
    b.exit();
    return b.finish();
}

/**
 * Variant C ("smem"): coalesced loads staged through shared memory
 * with a per-block tree reduction — fewer global stores, more SMEM
 * and barrier activity.
 */
KernelProgram
smemSum(unsigned total_threads)
{
    const unsigned per_thread = 16;
    const unsigned threads = 256;
    KernelBuilder b("sum_smem", 12, threads * 4);
    b.imad(0, Operand::special(SpecialReg::CtaIdX),
           Operand::special(SpecialReg::NTidX),
           Operand::special(SpecialReg::TidX));
    b.imad(1, R(0), I(4), I(in_addr));
    b.mov(2, I(0));
    b.mov(3, I(0));
    auto loop = b.newLabel();
    auto done = b.newLabel();
    b.bind(loop);
    b.setp(0, Cmp::GE, CmpType::U32, R(3), I(per_thread));
    b.braIf(0, false, done, done);
    b.ldg(4, R(1));
    b.iadd(2, R(2), R(4));
    b.iadd(1, R(1), I(total_threads * 4));
    b.iadd(3, R(3), I(1));
    b.jump(loop);
    b.bind(done);
    b.mov(6, Operand::special(SpecialReg::TidX));
    b.imul(7, R(6), I(4));
    b.sts(R(7), R(2));
    b.bar();
    for (unsigned stride = threads / 2; stride > 0; stride /= 2) {
        auto skip = b.newLabel();
        b.setp(1, Cmp::GE, CmpType::U32, R(6), I(stride));
        b.braIf(1, false, skip, skip);
        b.lds(8, R(7));
        b.lds(9, R(7), static_cast<int32_t>(stride * 4));
        b.iadd(8, R(8), R(9));
        b.sts(R(7), R(8));
        b.bind(skip);
        b.bar();
    }
    auto no_store = b.newLabel();
    b.setp(2, Cmp::NE, CmpType::U32, R(6), I(0));
    b.braIf(2, false, no_store, no_store);
    b.lds(8, I(0));
    b.imad(5, Operand::special(SpecialReg::CtaIdX), I(4), I(out_addr));
    b.stg(R(5), R(8));
    b.bind(no_store);
    b.exit();
    return b.finish();
}

} // namespace

int
main()
{
    try {
        GpuConfig cfg = GpuConfig::gt240();
        Simulator sim(cfg);

        std::vector<uint32_t> data(n_elems);
        uint64_t want = 0;
        for (unsigned i = 0; i < n_elems; ++i) {
            data[i] = i * 2654435761u;
            want += data[i];
        }
        sim.gpu().memcpyToDevice(in_addr, data.data(), n_elems * 4);

        const unsigned total_threads = n_elems / 16;
        LaunchConfig lc;
        lc.grid = {total_threads / 256, 1};
        lc.block = {256, 1};

        struct Variant
        {
            const char *name;
            KernelProgram prog;
            bool per_block_output;
        };
        Variant variants[] = {
            {"chunked (uncoalesced)", chunkedSum(), false},
            {"coalesced", coalescedSum(total_threads), false},
            {"coalesced + smem tree", smemSum(total_threads), true},
        };

        std::printf("=== Energy impact of memory-access optimization "
                    "(%s, %u-element reduction) ===\n",
                    cfg.name.c_str(), n_elems);
        std::printf("%-24s %10s %10s %10s %12s\n", "variant",
                    "time[us]", "power[W]", "energy[mJ]", "txn/warp-ld");

        for (Variant &v : variants) {
            KernelSnapshot snap = sim.capturePerf(v.prog, lc);
            KernelRun run = ReplayGroup({&sim}).replay(
                snap, sim::RowDetail::kernels)[0];
            // Check the result: sum all partials on the host.
            unsigned outputs =
                v.per_block_output ? lc.grid.count() : total_threads;
            std::vector<uint32_t> partial(outputs);
            sim.gpu().memcpyToHost(partial.data(), out_addr,
                                   outputs * 4);
            uint64_t got = 0;
            for (uint32_t p : partial)
                got += p;
            if ((got & 0xffffffffu) != (want & 0xffffffffu))
                fatal("wrong sum from variant ", v.name);

            uint64_t lookups = 0;
            uint64_t txns = 0;
            for (const auto &c : run.perf.activity.cores) {
                lookups += c.coalescer_lookups;
                txns += c.coalescer_transactions;
            }
            double power = run.report.totalPower() + run.report.dram_w;
            std::printf("%-24s %10.1f %10.2f %10.3f %12.2f\n", v.name,
                        run.perf.time_s * 1e6, power,
                        power * run.perf.time_s * 1e3,
                        static_cast<double>(txns) / lookups);
        }
        std::printf("\nCoalescing cuts memory transactions per warp "
                    "load and with them runtime and energy; the SMEM "
                    "tree trades global stores for cheap SMEM traffic."
                    "\n");
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
    return 0;
}
