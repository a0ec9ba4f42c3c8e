/**
 * @file
 * Reproduces Fig. 4 of the paper: the same kernel run 12 times with
 * 1..12 thread blocks on the GT240 (12 cores in 4 clusters). The
 * measured card power rises in a staircase: the first block turns on
 * the global scheduler (+3.34 W) plus a cluster and a core; blocks
 * 2-4 each light up a previously idle cluster (+0.692 W plus a
 * core); blocks 5-12 only add cores. The bench prints the per-phase
 * measured power, the step deltas, and an ASCII rendition of the
 * waveform.
 */

#include <cmath>
#include <cstdio>
#include <exception>
#include <vector>

#include "common/logging.hh"
#include "measure/testbed.hh"
#include "measure/virtual_hw.hh"
#include "sim/simulator.hh"
#include "workloads/microbench.hh"

using namespace gpusimpow;

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
        perf::KernelProgram prog =
            workloads::makeOccupancyKernel(4000, sink);

        std::printf("=== Figure 4: power vs thread blocks (GT240, "
                    "12 cores in 4 clusters) ===\n");
        std::printf("%-8s %10s %12s %10s\n", "blocks", "kernel[us]",
                    "power[W]", "step[W]");

        std::vector<double> levels;
        double gap_power = hw.preKernelPower();
        for (unsigned blocks = 1; blocks <= cfg.numCores(); ++blocks) {
            perf::LaunchConfig lc;
            lc.grid = {blocks, 1};
            lc.block = {256, 1};
            KernelSnapshot snap = sim.capturePerf(prog, lc, true, 20e-6);
            KernelRun run = ReplayGroup({&sim}).replay(
                snap, sim::RowDetail::kernels)[0];
            // Average modeled dynamic power over the kernel.
            double dyn = run.report.dynamicPower();
            double dram = run.report.dram_w;
            double level = hw.cardPower("occupancy", dyn, dram);
            // Measure through the testbed (steady phase).
            measure::Trace trace = testbed.record(
                [&](double t) { return t < 1e-3 ? gap_power : level; },
                11e-3, hw.supplyTau());
            double meas =
                measure::Testbed::analyze(trace, 3e-3, 11e-3).avg_power_w;
            double step = levels.empty() ? meas - gap_power
                                         : meas - levels.back();
            levels.push_back(meas);
            std::printf("%-8u %10.1f %12.2f %+9.3f\n", blocks,
                        run.perf.time_s * 1e6, meas, step);
        }

        // The paper's annotated quantities.
        double first_step = levels[0] - gap_power;
        double cluster_step = ((levels[1] - levels[0]) +
                               (levels[2] - levels[1]) +
                               (levels[3] - levels[2])) / 3.0;
        double core_step = (levels[11] - levels[3]) / 8.0;
        std::printf("\nfirst-block step: %.2f W (paper: 3.34 W global "
                    "scheduler + cluster + core)\n", first_step);
        std::printf("cluster activation step (blocks 2-4 avg): %.3f W "
                    "above the core step (paper: 0.692 W)\n",
                    cluster_step - core_step);
        std::printf("per-core step (blocks 5-12 avg): %.3f W\n",
                    core_step);

        // ASCII waveform, one column per 0.25 s of the paper's x
        // axis equivalent: render the 12 levels between idle rails.
        std::printf("\nwaveform (each phase, '#' = measured level):\n");
        double lo = gap_power - 1.0;
        double hi = levels.back() + 1.0;
        for (int row = 9; row >= 0; --row) {
            double level_at_row = lo + (hi - lo) * (row + 0.5) / 10.0;
            std::printf("%6.1fW |", level_at_row);
            for (double l : levels) {
                std::printf("%c%c%c", ' ',
                            l >= level_at_row ? '#' : ' ', ' ');
            }
            std::printf("\n");
        }
        std::printf("        +");
        for (size_t i = 0; i < levels.size(); ++i)
            std::printf("---");
        std::printf("\n         ");
        for (size_t i = 1; i <= levels.size(); ++i)
            std::printf("%2zu ", i);
        std::printf(" blocks\n");
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
    return 0;
}
