/**
 * @file
 * Energy-optimization example: sweep a DVFS ladder (paired
 * voltage/frequency operating points) for several workloads on the
 * GT240 and report, per workload, the operating point that minimizes
 * energy and the one that minimizes energy-delay product — the
 * textbook use of a V^2*f power model (paper Eq. 1).
 *
 * Compute-bound kernels keep scaling with the core clock, so their
 * minimum-energy point sits low on the ladder; memory-bound kernels
 * stop gaining runtime from higher clocks while dynamic power keeps
 * rising, which pushes their optimum lower still. Because DRAM
 * background power keeps integrating over a longer runtime, the
 * whole-card optimum can sit above the chip-only optimum.
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
        std::printf("=== Minimum-energy DVFS operating point per "
                    "workload (GeForce GT240) ===\n");

        // A realistic ladder: supply tracks frequency sublinearly,
        // and every rung respects the alpha-power feasibility law
        // (clock <= OperatingPoint::maxFreqScale() at its supply).
        std::vector<OperatingPoint> ladder = {
            {0.80, 0.60}, {0.85, 0.70}, {0.90, 0.80}, {0.95, 0.90},
            {1.00, 1.00}, {1.05, 1.04}, {1.10, 1.09},
        };
        for (const OperatingPoint &op : ladder)
            if (!op.isFeasible())
                fatal("ladder point ", op.label(),
                      " exceeds the feasible clock at its supply");

        sim::SweepSpec spec;
        spec.configs = {GpuConfig::gt240()};
        spec.operating_points = ladder;
        spec.workloads = {"vectoradd", "scalarprod", "matmul",
                          "blackscholes"};

        sim::SweepSession session;
        sim::SweepResult result = session.submit(spec);
        std::printf("(%zu scenarios on %u worker threads)\n\n",
                    result.size(), session.jobs());

        std::printf("%-14s %-12s %10s %11s   %-12s %12s\n", "workload",
                    "minE point", "time[us]", "energy[mJ]",
                    "minEDP point", "EDP[uJ*s]");
        for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
            const sim::ScenarioResult *best_e = nullptr;
            const sim::ScenarioResult *best_edp = nullptr;
            for (std::size_t p = 0; p < ladder.size(); ++p) {
                const sim::ScenarioResult &r =
                    result.at(p * spec.workloads.size() + w);
                if (!r.verified)
                    fatal("verification failed for ",
                          r.scenario.label);
                if (!best_e || r.energy_j < best_e->energy_j)
                    best_e = &r;
                if (!best_edp || r.edp() < best_edp->edp())
                    best_edp = &r;
            }
            std::printf("%-14s %-12s %10.1f %11.3f   %-12s %12.4f\n",
                        spec.workloads[w].c_str(),
                        best_e->scenario.op.label().c_str(),
                        best_e->time_s * 1e6, best_e->energy_j * 1e3,
                        best_edp->scenario.op.label().c_str(),
                        best_edp->edp() * 1e9);
        }

        std::printf("\nFull ladder (energy per point):\n");
        std::fputs(result.formatTable().c_str(), stdout);
        std::printf("\nReading the table: energy bottoms out where "
                    "the dynamic V^2*f saving still outruns the "
                    "static+DRAM energy growth from the longer "
                    "runtime; EDP favors a higher point than pure "
                    "energy.\n");
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
    return 0;
}
