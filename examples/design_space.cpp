/**
 * @file
 * Architect-facing example (SectionIII-A: "architects can evaluate
 * design choices early from a power perspective"): explore a slice
 * of the GPU design space — core count x process node — under a
 * fixed workload, reporting performance, power, energy, and
 * energy-delay product for every point.
 *
 * The exploration runs as one SweepSpec on a sweep session: the
 * session expands the cartesian product, simulates every
 * point on a worker pool, and returns the results in deterministic
 * order, so the printed table is identical no matter how many worker
 * threads the host machine offers.
 */

#include <cstdio>
#include <exception>

#include "common/logging.hh"
#include "sim/session.hh"

using namespace gpusimpow;

int
main()
{
    try {
        std::printf("=== Design-space exploration: GT240-class "
                    "architecture, matmul workload ===\n");

        sim::SweepSpec spec;
        for (unsigned clusters : {2u, 4u, 6u}) {
            GpuConfig cfg = GpuConfig::gt240();
            cfg.clusters = clusters;
            spec.configs.push_back(cfg);
        }
        spec.tech_nodes = {40u, 28u};
        spec.workloads = {"matmul"};

        sim::SweepSession session;
        sim::SweepResult result = session.submit(spec);

        std::printf("(%zu design points on %u worker threads)\n\n",
                    result.size(), session.jobs());
        std::printf("%8s %6s %6s %10s %10s %10s %12s\n", "node",
                    "cores", "Vdd", "time[us]", "power[W]",
                    "energy[mJ]", "EDP[uJ*s]");

        // Rows are config-major; print node-major like the paper's
        // design-space tables (all core counts per node together).
        for (unsigned node : spec.tech_nodes) {
            for (const sim::ScenarioResult &r : result.rows()) {
                if (r.scenario.config.tech.node_nm != node)
                    continue;
                if (!r.verified)
                    fatal("matmul verification failed for ",
                          r.scenario.label);
                std::printf("%5u nm %6u %6.2f %10.1f %10.2f %10.3f "
                            "%12.4f\n",
                            r.scenario.config.tech.node_nm,
                            r.scenario.config.numCores(), r.vdd,
                            r.time_s * 1e6, r.avg_power_w,
                            r.energy_j * 1e3, r.edp() * 1e9);
            }
        }
        std::printf("\nReading the table: more cores buy runtime at "
                    "higher power; the smaller node cuts both, but "
                    "leakage limits the static floor.\n");
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
    return 0;
}
