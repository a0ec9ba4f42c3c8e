/**
 * @file
 * Reproduces Table II (key features of the evaluated GPUs) from the
 * configuration presets, runs both presets against a common workload
 * set on a sweep session to contrast their measured
 * behavior, and prints the Table III equivalent of this
 * reproduction's software environment.
 */

#include <cstdio>
#include <exception>

#include "common/logging.hh"
#include "config/gpu_config.hh"
#include "sim/session.hh"

using namespace gpusimpow;

int
main()
{
    try {
        GpuConfig a = GpuConfig::gt240();
        GpuConfig b = GpuConfig::gtx580();

        std::printf("=== Table II: key features of the evaluated "
                    "GPUs ===\n");
        std::printf("%-22s %14s %14s\n", "Feature", "GT240", "GTX580");
        std::printf("%-22s %14u %14u\n", "#Cores", a.numCores(),
                    b.numCores());
        std::printf("%-22s %14u %14u\n", "#Threads per core",
                    a.core.max_threads, b.core.max_threads);
        std::printf("%-22s %14u %14u\n", "#FUs per core",
                    a.core.fp_lanes, b.core.fp_lanes);
        std::printf("%-22s %11.0f MHz %11.0f MHz\n", "Uncore clock",
                    a.clocks.uncore_hz / 1e6, b.clocks.uncore_hz / 1e6);
        std::printf("%-22s %13.2fx %13.2fx\n", "Shader-to-Uncore",
                    a.clocks.shader_to_uncore,
                    b.clocks.shader_to_uncore);
        std::printf("%-22s %14u %14u\n", "#Warps in-flight",
                    a.core.maxWarps(), b.core.maxWarps());
        std::printf("%-22s %14s %14s\n", "Scoreboard",
                    a.core.scoreboard ? "yes" : "no",
                    b.core.scoreboard ? "yes" : "no");
        std::printf("%-22s %14s %11u KB\n", "L2-$ size",
                    a.l2.present ? "?" : "none",
                    b.l2.total_bytes / 1024);
        std::printf("%-22s %12u nm %12u nm\n", "Process node",
                    a.tech.node_nm, b.tech.node_nm);

        // Measured contrast: both Table II presets through a sweep
        // session under a small common workload set (a subset of the
        // sweep bench_sweep_throughput times for scaling).
        sim::SweepSpec spec;
        spec.configs = {a, b};
        spec.workloads = {"vectoradd", "scalarprod", "matmul",
                          "blackscholes"};
        sim::SweepSession session;
        sim::SweepResult result = session.submit(spec);

        std::printf("\n=== Measured on the simulation engine "
                    "(%u workers) ===\n", session.jobs());
        std::fputs(result.formatTable().c_str(), stdout);

        std::printf("\n=== Table III equivalent: reproduction "
                    "environment ===\n");
        std::printf("%-22s %s\n", "Feature", "Simulation");
        std::printf("%-22s %s\n", "Performance simulator",
                    "gpusimpow::perf (from scratch, GPGPU-Sim-class)");
        std::printf("%-22s %s\n", "Power model",
                    "gpusimpow::power (McPAT/CACTI-class analytic + "
                    "empirical)");
        std::printf("%-22s %s\n", "Hardware",
                    "virtual cards + simulated DAQ testbed "
                    "(see DESIGN.md section2)");
        std::printf("%-22s %s\n", "Language", "C++20");
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
    return 0;
}
