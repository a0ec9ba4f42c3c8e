/**
 * @file
 * DVFS Pareto-front bench: sweeps a two-dimensional V/f grid on the
 * GT240 and GTX580 (aggregating a small workload mix per operating
 * point) and emits the energy-versus-runtime Pareto front of each
 * card — the frontier a DVFS governor would pick operating points
 * from. Points off the front are dominated: some other operating
 * point is faster AND cheaper in energy.
 *
 * The grid intentionally includes mismatched pairs (high V at low f,
 * low V at high f). Low-V/high-f corners are electrically infeasible
 * — the alpha-power delay law (OperatingPoint::maxFreqScale) caps the
 * clock a supply can sustain — and are excluded from the front;
 * high-V/low-f corners are textbook-dominated and must never appear
 * on it, which doubles as a sanity check of the operating-point
 * model.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <vector>

#include "common/logging.hh"
#include "sim/session.hh"

using namespace gpusimpow;

namespace {

struct PointSummary
{
    OperatingPoint op;
    double time_s = 0.0;
    double energy_j = 0.0;
    bool pareto = false;
};

/** Aggregate one card's sweep rows into per-operating-point totals. */
std::vector<PointSummary>
summarize(const sim::SweepResult &result,
          const std::vector<OperatingPoint> &ops,
          std::size_t workloads_per_op)
{
    std::vector<PointSummary> points(ops.size());
    for (std::size_t p = 0; p < ops.size(); ++p) {
        points[p].op = ops[p];
        for (std::size_t w = 0; w < workloads_per_op; ++w) {
            const sim::ScenarioResult &r =
                result.at(p * workloads_per_op + w);
            if (!r.verified)
                fatal("verification failed for ", r.scenario.label);
            points[p].time_s += r.time_s;
            points[p].energy_j += r.energy_j;
        }
    }
    // Pareto membership among feasible points: no other feasible
    // point is strictly better on one axis and at least as good on
    // the other.
    for (PointSummary &a : points) {
        a.pareto = a.op.isFeasible() &&
                   std::none_of(
                       points.begin(), points.end(),
                       [&](const PointSummary &b) {
                           if (!b.op.isFeasible())
                               return false;
                           return (b.time_s < a.time_s &&
                                   b.energy_j <= a.energy_j) ||
                                  (b.time_s <= a.time_s &&
                                   b.energy_j < a.energy_j);
                       });
    }
    return points;
}

void
printCard(const char *name, const std::vector<PointSummary> &points)
{
    std::printf("--- %s ---\n", name);
    std::printf("%-12s %12s %12s %10s  %s\n", "point", "time[us]",
                "energy[mJ]", "EDP[uJ*s]", "front");
    for (const PointSummary &p : points) {
        std::printf("%-12s %12.1f %12.3f %10.4f  %s\n",
                    p.op.label().c_str(), p.time_s * 1e6,
                    p.energy_j * 1e3, p.energy_j * p.time_s * 1e9,
                    p.pareto ? "PARETO"
                             : (p.op.isFeasible() ? "-"
                                                  : "infeasible"));
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    try {
        // V rows x f columns, plus the nominal point. Includes
        // dominated corners on purpose (e.g. 1.1:0.7).
        std::vector<OperatingPoint> grid;
        for (double v : {0.8, 0.9, 1.0, 1.1})
            for (double f : {0.7, 0.85, 1.0, 1.09})
                grid.push_back({v, f});

        std::vector<std::string> workloads = {"vectoradd",
                                              "blackscholes"};

        std::printf("=== DVFS energy/runtime Pareto front (%zu-point "
                    "V/f grid, %zu workloads) ===\n\n", grid.size(),
                    workloads.size());

        auto t0 = std::chrono::steady_clock::now();
        for (const char *gpu : {"gt240", "gtx580"}) {
            sim::SweepSpec spec;
            spec.configs = {std::string(gpu) == "gt240"
                                ? GpuConfig::gt240()
                                : GpuConfig::gtx580()};
            spec.operating_points = grid;
            spec.workloads = workloads;
            sim::SweepSession session;
            sim::SweepResult result = session.submit(spec);
            printCard(spec.configs[0].name.c_str(),
                      summarize(result, grid, workloads.size()));
        }
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        std::printf("simulated %zu scenarios in %.2f s\n",
                    2 * grid.size() * workloads.size(), wall);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
    return 0;
}
