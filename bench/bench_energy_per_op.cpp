/**
 * @file
 * Reproduces the SectionIII-D microbenchmark experiment: estimate
 * the energy per INT and per FP instruction by running the LFSR /
 * Mandelbrot loops with 31 and 1 enabled lanes per warp (identical
 * execution time), measuring both through the testbed, and dividing
 * the energy difference by instructions x cores x lanes-enabled
 * delta. The paper measures ~40 pJ (INT) and ~75 pJ (FP); NVIDIA
 * reports 50 pJ per FP instruction [28].
 */

#include <cstdio>
#include <exception>

#include "common/logging.hh"
#include "measure/testbed.hh"
#include "measure/virtual_hw.hh"
#include "sim/simulator.hh"
#include "workloads/microbench.hh"

using namespace gpusimpow;

namespace {

double
measureVariant(Simulator &sim, measure::VirtualHardware &hw,
               measure::Testbed &testbed, const perf::KernelProgram &prog,
               const perf::LaunchConfig &lc, double &out_time_s)
{
    KernelRun run = ReplayGroup({&sim}).replay(
        sim.capturePerf(prog, lc), sim::RowDetail::kernels)[0];
    out_time_s = run.perf.time_s;
    double level = hw.cardPower(prog.name, run.report.dynamicPower(),
                                run.report.dram_w);
    double gap = hw.preKernelPower();
    measure::Trace trace = testbed.record(
        [&](double t) { return t < 1e-3 ? gap : level; }, 11e-3,
        hw.supplyTau());
    return measure::Testbed::analyze(trace, 3e-3, 11e-3).avg_power_w;
}

} // namespace

int
main()
{
    try {
        GpuConfig cfg = GpuConfig::gt240();
        Simulator sim(cfg);
        measure::VirtualHardware hw(cfg, sim.powerModel().staticPower(),
                                    0x5EED);
        measure::Testbed testbed(cfg, 0x5EED);
        uint32_t sink = sim.gpu().allocator().alloc(64 * 1024);

        // SectionIII-D setup: one block per core, 512 threads/block.
        perf::LaunchConfig lc;
        lc.grid = {cfg.numCores(), 1};
        lc.block = {512, 1};
        const unsigned iterations = 2000;
        const unsigned warps_per_block = 512 / cfg.core.warp_size;

        std::printf("=== SectionIII-D: energy per operation "
                    "(differential lane enabling) ===\n");

        struct Variant
        {
            const char *name;
            bool is_fp;
            double paper_pj;
            unsigned body_ops;
        };
        Variant variants[] = {
            {"INT (LFSR loop)", false, 40.0,
             workloads::int_body_ops_per_iter},
            {"FP (Mandelbrot loop)", true, 75.0,
             workloads::fp_body_ops_per_iter},
        };

        for (const Variant &v : variants) {
            double t31 = 0.0;
            double t1 = 0.0;
            perf::KernelProgram p31 =
                v.is_fp ? workloads::makeFpMicrobench(iterations, 31, sink)
                        : workloads::makeIntMicrobench(iterations, 31,
                                                       sink);
            perf::KernelProgram p1 =
                v.is_fp ? workloads::makeFpMicrobench(iterations, 1, sink)
                        : workloads::makeIntMicrobench(iterations, 1,
                                                       sink);
            double pow31 =
                measureVariant(sim, hw, testbed, p31, lc, t31);
            double pow1 = measureVariant(sim, hw, testbed, p1, lc, t1);

            // Both variants must take the same time (the guard only
            // disables lanes, not instructions).
            double time_skew = std::abs(t31 - t1) / t31;
            // Energy difference over the kernel duration.
            double delta_e = (pow31 - pow1) * t31;
            // Executed body warp-instructions across the chip.
            double warp_insts = static_cast<double>(iterations) *
                                v.body_ops * warps_per_block *
                                cfg.numCores();
            double delta_lanes = 31.0 - 1.0;
            double pj_per_op =
                delta_e / (warp_insts * delta_lanes) * 1e12;

            std::printf("%-22s 31-lane %7.2f W, 1-lane %7.2f W, "
                        "time skew %.2f%%\n",
                        v.name, pow31, pow1, time_skew * 100.0);
            std::printf("%-22s => %.1f pJ/op (paper: ~%.0f pJ%s)\n\n",
                        "", pj_per_op, v.paper_pj,
                        v.is_fp ? "; NVIDIA reports 50 pJ [28]" : "");
        }
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
    return 0;
}
