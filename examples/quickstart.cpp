/**
 * @file
 * Quickstart: configure a GT240, run a vectoradd kernel, print the
 * power and area report. This is the minimal end-to-end GPUSimPow
 * flow of Fig. 1: GPU configuration + GPGPU code in, power & area
 * results out.
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
    Logger::instance().setLevel(LogLevel::Inform);
    try {
        // 1. Pick a GPU configuration (Table II preset or XML file).
        GpuConfig cfg = GpuConfig::gt240();
        std::printf("Simulating %s (%s)\n\n", cfg.name.c_str(),
                    cfg.chip.c_str());

        Simulator sim(cfg);

        // 2. Prepare a workload: upload inputs, build the kernel.
        auto wl = workloads::makeWorkload("vectoradd");
        auto launches = wl->prepare(sim.gpu());

        // 3. Run each kernel: time it on the cycle-level GPU, then
        //    evaluate its power from that capture.
        for (const auto &kl : launches) {
            KernelSnapshot snap = sim.capturePerf(kl.prog, kl.launch);
            KernelRun run = ReplayGroup({&sim}).replay(
                snap, sim::RowDetail::kernels)[0];
            std::printf("kernel %-14s %8lu cycles  %8.3f us  "
                        "%6.2f W dynamic  %6.2f W total\n",
                        kl.label.c_str(),
                        static_cast<unsigned long>(run.perf.cycles),
                        run.perf.time_s * 1e6,
                        run.report.dynamicPower(),
                        run.report.totalPower());
            std::printf("\nComponent breakdown:\n%s\n",
                        run.report.format().c_str());
        }

        // 4. Check functional correctness against the host reference.
        std::printf("verification: %s\n",
                    wl->verify(sim.gpu()) ? "PASS" : "FAIL");

        // 5. Architectural queries (Table IV style).
        std::printf("static power: %.2f W, area: %.1f mm2\n",
                    sim.powerModel().staticPower(),
                    sim.powerModel().area());
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
    return 0;
}
