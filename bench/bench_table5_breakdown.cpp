/**
 * @file
 * Reproduces Table V of the paper: the blackscholes power breakdown
 * on the GT240, at GPU level (Cores / NoC / MC / PCIe) and at core
 * level (Base / WCU / RF / EU / LDSTU / Undiff). Prints simulated
 * values next to the paper's, with percentages computed the same way
 * (share of overall static+dynamic).
 */

#include <cstdio>
#include <exception>

#include "common/logging.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

using namespace gpusimpow;

namespace {

struct Row
{
    const char *name;
    double sim_static;
    double sim_dynamic;
    double paper_static;
    double paper_dynamic;
};

void
printRows(const char *title, const Row *rows, int n, double sim_total,
          double paper_total)
{
    std::printf("%s\n", title);
    std::printf("  %-20s %23s %23s\n", "", "--- simulated ---",
                "---- paper ----");
    std::printf("  %-20s %8s %8s %6s %8s %8s %6s\n", "component",
                "stat[W]", "dyn[W]", "pct", "stat[W]", "dyn[W]", "pct");
    for (int i = 0; i < n; ++i) {
        const Row &r = rows[i];
        double sim_pct =
            (r.sim_static + r.sim_dynamic) / sim_total * 100.0;
        double paper_pct =
            (r.paper_static + r.paper_dynamic) / paper_total * 100.0;
        std::printf("  %-20s %8.3f %8.3f %5.1f%% %8.3f %8.3f %5.1f%%\n",
                    r.name, r.sim_static, r.sim_dynamic, sim_pct,
                    r.paper_static, r.paper_dynamic, paper_pct);
    }
}

} // namespace

int
main()
{
    try {
        Simulator sim(GpuConfig::gt240());
        auto wl = workloads::makeWorkload("blackscholes");
        auto launches = wl->prepare(sim.gpu());
        GSP_ASSERT(launches.size() == 1, "blackscholes has one kernel");
        KernelSnapshot snap =
            sim.capturePerf(launches[0].prog, launches[0].launch);
        KernelRun run =
            ReplayGroup({&sim}).replay(snap, sim::RowDetail::kernels)[0];
        if (!wl->verify(sim.gpu()))
            fatal("blackscholes verification failed");

        const power::PowerNode &gpu = run.report.gpu;
        auto stat = [&](const char *path) {
            const power::PowerNode *n = gpu.find(path);
            return n ? n->totalStatic() : 0.0;
        };
        auto dyn = [&](const char *path) {
            const power::PowerNode *n = gpu.find(path);
            return n ? n->totalDynamic() : 0.0;
        };

        std::printf("=== Table V: blackscholes power breakdown on "
                    "GT240 ===\n");
        std::printf("(kernel: %lu cycles, %.2f us; DRAM excluded from "
                    "the table as in the paper: simulated %.2f W, "
                    "paper 4.3 W)\n\n",
                    static_cast<unsigned long>(run.perf.cycles),
                    run.perf.time_s * 1e6, run.report.dram_w);

        double sim_stat = run.report.staticPower();
        double sim_dyn = run.report.dynamicPower();
        double sim_total = sim_stat + sim_dyn;
        double paper_total = 17.934 + 19.207;

        Row gpu_rows[] = {
            {"Overall", sim_stat, sim_dyn, 17.934, 19.207},
            {"Cores", stat("Cores"), dyn("Cores"), 15.393, 15.132},
            {"NoC", stat("NoC"), dyn("NoC"), 1.484, 1.229},
            {"Memory Controller", stat("Memory Controller"),
             dyn("Memory Controller"), 0.497, 1.753},
            {"PCIe Controller", stat("PCIe Controller"),
             dyn("PCIe Controller"), 0.539, 0.992},
        };
        printRows("GPU level:", gpu_rows, 5, sim_total, paper_total);

        // Core level: paper overall 1.283 / 1.031 per core.
        double core_stat = stat("Cores/Core0");
        double core_dyn = dyn("Cores/Core0");
        double sim_core_total = core_stat + core_dyn;
        double paper_core_total = 1.283 + 1.031;
        Row core_rows[] = {
            {"Overall", core_stat, core_dyn, 1.283, 1.031},
            {"Base Power", stat("Cores/Core0/Base Power"),
             dyn("Cores/Core0/Base Power"), 0.0, 0.199},
            {"WCU", stat("Cores/Core0/WCU"), dyn("Cores/Core0/WCU"),
             0.042, 0.089},
            {"Register File", stat("Cores/Core0/Register File"),
             dyn("Cores/Core0/Register File"), 0.112, 0.173},
            {"Execution Units", stat("Cores/Core0/Execution Units"),
             dyn("Cores/Core0/Execution Units"), 0.0096, 0.556},
            {"LDSTU", stat("Cores/Core0/LDSTU"),
             dyn("Cores/Core0/LDSTU"), 0.234, 0.014},
            {"Undiff. Core", stat("Cores/Core0/Undiff. Core"),
             dyn("Cores/Core0/Undiff. Core"), 0.886, 0.0},
        };
        std::printf("\n");
        printRows("Core level (Core0):", core_rows, 7, sim_core_total,
                  paper_core_total);

        std::printf("\nCluster base (all clusters): %.3f W, "
                    "global scheduler: %.3f W\n",
                    dyn("Cores/Cluster Base"),
                    dyn("Cores/Global Scheduler"));
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
    return 0;
}
