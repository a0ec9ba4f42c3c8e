/**
 * @file
 * Ablation: warp issue scheduling. The modeled hardware uses the
 * rotating-priority (round-robin) scheduler of [16]; the paper's
 * conclusion lists scheduler studies (two-level scheduling [32]) as
 * target research. This bench compares round-robin against
 * greedy-then-oldest on a latency-sensitive and a compute-bound
 * kernel.
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
        std::printf("=== Ablation: warp scheduler policy (GT240) "
                    "===\n");
        std::printf("%-14s %-8s %10s %10s %12s\n", "kernel", "policy",
                    "cycles", "time[us]", "total[W]");
        for (const char *wl_name : {"vectoradd", "blackscholes"}) {
            for (const char *policy : {"rr", "gto"}) {
                GpuConfig cfg = GpuConfig::gt240();
                cfg.core.sched_policy = policy;
                Simulator sim(cfg);
                auto wl = workloads::makeWorkload(wl_name);
                auto seq = wl->prepare(sim.gpu());
                KernelSnapshot snap =
                    sim.capturePerf(seq[0].prog, seq[0].launch);
                KernelRun run = ReplayGroup({&sim}).replay(
                    snap, sim::RowDetail::kernels)[0];
                if (!wl->verify(sim.gpu()))
                    fatal(wl_name, " verification failed");
                std::printf("%-14s %-8s %10lu %10.1f %12.2f\n",
                            wl_name, policy,
                            static_cast<unsigned long>(run.perf.cycles),
                            run.perf.time_s * 1e6,
                            run.report.totalPower() +
                                run.report.dram_w);
            }
        }
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
    return 0;
}
