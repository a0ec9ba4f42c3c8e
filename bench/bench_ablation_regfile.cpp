/**
 * @file
 * Ablation: register-file organization [19]. The modeled RF is
 * built from single-ported banks with operand collectors; this bench
 * sweeps the bank count and compares against a hypothetical truly
 * multi-ported RF, quantifying the area-density argument of the
 * patent the paper cites.
 */

#include <cstdio>
#include <exception>

#include "circuit/array.hh"
#include "common/logging.hh"
#include "config/gpu_config.hh"
#include "power/chip_power.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

using namespace gpusimpow;

int
main()
{
    try {
        std::printf("=== Ablation: register file organization "
                    "(GT240-class, 16384 x 32-bit) ===\n\n");

        // Circuit-level comparison: banked single-ported vs
        // multi-ported monolithic.
        tech::TechNode t = tech::TechNode::make(40, 1.05, 350.0);
        std::printf("%-34s %10s %12s %12s\n", "organization",
                    "area[mm2]", "read[pJ]", "leak[mW]");
        for (unsigned banks : {4u, 8u, 16u, 32u}) {
            circuit::SramParams p;
            p.entries = 16384 * 32 / (banks * 128);
            p.bits_per_entry = 128;
            p.rw_ports = 1;
            circuit::SramArray bank(p, t);
            std::printf("%2u single-ported banks %12s %10.3f %12.2f "
                        "%12.2f\n",
                        banks, "", bank.area() * 1e6 * banks,
                        bank.readEnergy() * 1e12,
                        bank.leakage() * 1e3 * banks);
        }
        {
            // Hypothetical 3R/1W monolithic multiported RF.
            circuit::SramParams p;
            p.entries = 16384 * 32 / 128;
            p.bits_per_entry = 128;
            p.read_ports = 3;
            p.write_ports = 1;
            circuit::SramArray mono(p, t);
            std::printf("%-34s %10.3f %12.2f %12.2f\n",
                        "monolithic 3R/1W (hypothetical)",
                        mono.area() * 1e6, mono.readEnergy() * 1e12,
                        mono.leakage() * 1e3);
        }

        // System-level: collector count sweep on blackscholes.
        std::printf("\ncollector sweep (blackscholes, GT240): \n");
        std::printf("%12s %10s %12s\n", "collectors", "cycles",
                    "RF power[W]");
        for (unsigned collectors : {2u, 4u, 8u}) {
            GpuConfig cfg = GpuConfig::gt240();
            cfg.core.operand_collectors = collectors;
            Simulator sim(cfg);
            auto wl = workloads::makeWorkload("blackscholes");
            auto seq = wl->prepare(sim.gpu());
            KernelSnapshot snap =
                sim.capturePerf(seq[0].prog, seq[0].launch);
            KernelRun run = ReplayGroup({&sim}).replay(
                snap, sim::RowDetail::kernels)[0];
            const power::PowerNode *rf =
                run.report.gpu.find("Cores/Core0/Register File");
            GSP_ASSERT(rf != nullptr, "missing RF node");
            std::printf("%12u %10lu %12.3f\n", collectors,
                        static_cast<unsigned long>(run.perf.cycles),
                        rf->totalDynamic() + rf->totalStatic());
        }
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
    return 0;
}
