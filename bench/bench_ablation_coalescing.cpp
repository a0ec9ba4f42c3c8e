/**
 * @file
 * Ablation: memory-access coalescing [24] on vs off. With the
 * coalescer bypassed, every active lane issues its own line-sized
 * transaction; the bench quantifies the cost in transactions, DRAM
 * traffic, runtime, power, and energy on a memory-bound kernel.
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
        std::printf("=== Ablation: access coalescing on/off (GT240, "
                    "vectorAdd) ===\n");
        std::printf("%-10s %10s %12s %10s %10s %10s\n", "coalescing",
                    "cycles", "transactions", "time[us]", "power[W]",
                    "energy[mJ]");
        for (bool on : {true, false}) {
            GpuConfig cfg = GpuConfig::gt240();
            cfg.core.coalescing = on;
            Simulator sim(cfg);
            auto wl = workloads::makeWorkload("vectoradd");
            auto seq = wl->prepare(sim.gpu());
            KernelSnapshot snap =
                sim.capturePerf(seq[0].prog, seq[0].launch);
            KernelRun run = ReplayGroup({&sim}).replay(
                snap, sim::RowDetail::kernels)[0];
            if (!wl->verify(sim.gpu()))
                fatal("vectoradd verification failed");
            uint64_t txn = 0;
            for (const auto &c : run.perf.activity.cores)
                txn += c.coalescer_transactions;
            double total_w =
                run.report.totalPower() + run.report.dram_w;
            std::printf("%-10s %10lu %12lu %10.1f %10.2f %10.3f\n",
                        on ? "on" : "off",
                        static_cast<unsigned long>(run.perf.cycles),
                        static_cast<unsigned long>(txn),
                        run.perf.time_s * 1e6, total_w,
                        total_w * run.perf.time_s * 1e3);
        }
        std::printf("\n(disabling the coalescer multiplies memory "
                    "transactions and stretches runtime; energy per "
                    "kernel rises accordingly)\n");
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
    return 0;
}
