/**
 * @file
 * Power-profiling example (the paper's SectionV-B use case): run any
 * benchmark kernel on either evaluated GPU and print the full
 * hierarchical power profile — overall chip, per top-level component,
 * and per core-internal component with percentages, exactly the kind
 * of breakdown Table V shows for blackscholes.
 *
 * Usage: power_profile [workload] [gt240|gtx580]
 */

#include <cstdio>
#include <cstring>
#include <exception>

#include "common/logging.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

using namespace gpusimpow;

int
main(int argc, char **argv)
{
    try {
        std::string wl_name = argc > 1 ? argv[1] : "blackscholes";
        std::string gpu_name = argc > 2 ? argv[2] : "gt240";
        GpuConfig cfg = gpu_name == "gtx580" ? GpuConfig::gtx580()
                                             : GpuConfig::gt240();

        Simulator sim(cfg);
        auto wl = workloads::makeWorkload(wl_name);
        auto launches = wl->prepare(sim.gpu());

        for (const auto &kl : launches) {
            KernelSnapshot snap = sim.capturePerf(kl.prog, kl.launch);
            KernelRun run = ReplayGroup({&sim}).replay(
                snap, sim::RowDetail::kernels)[0];
            double total = run.report.totalPower();
            std::printf("== %s on %s: %.2f W total (%.2f W static, "
                        "%.2f W dynamic, %.2f W DRAM) over %.0f us ==\n",
                        kl.label.c_str(), cfg.name.c_str(), total,
                        run.report.staticPower(),
                        run.report.dynamicPower(), run.report.dram_w,
                        run.perf.time_s * 1e6);

            // Top level with percentages (Table V upper half).
            for (const char *path :
                 {"Cores", "NoC", "Memory Controller",
                  "PCIe Controller"}) {
                const power::PowerNode *n = run.report.gpu.find(path);
                double p = n->totalStatic() + n->totalDynamic();
                std::printf("  %-20s %7.3f W  (%4.1f%%)\n", path, p,
                            p / total * 100.0);
            }
            // Core internals (Table V lower half).
            const power::PowerNode *core =
                run.report.gpu.find("Cores/Core0");
            double core_total =
                core->totalStatic() + core->totalDynamic();
            std::printf("  one core: %.3f W\n", core_total);
            for (const auto &child : core->children) {
                double p = child.totalStatic() + child.totalDynamic();
                std::printf("    %-20s %7.3f W  (%4.1f%%)\n",
                            child.name.c_str(), p,
                            p / core_total * 100.0);
            }
        }
        std::printf("verification: %s\n",
                    wl->verify(sim.gpu()) ? "PASS" : "FAIL");
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
    return 0;
}
