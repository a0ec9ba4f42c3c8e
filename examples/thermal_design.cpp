/**
 * @file
 * Cooling-solution design study: for every workload, find the
 * *cheapest* cooling solution (largest heatsink-to-ambient
 * resistance, i.e. the smallest/cheapest cooler) that still avoids
 * thermal throttling at the full core clock — steady-state junction
 * temperatures converged and below the throttle limit.
 *
 * This inverts the usual simulation question: instead of "how hot
 * does this cooler run", it answers "how much cooler do I have to
 * buy for this workload", per workload, by bisecting the cooling
 * scale of the thermal subsystem.
 */

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "config/gpu_config.hh"
#include "sim/session.hh"
#include "thermal/thermal.hh"

using namespace gpusimpow;

namespace {

/** True when the workload runs unthrottled at this cooling scale. */
bool
coolEnough(const GpuConfig &base, const std::string &workload,
           double cooling_scale)
{
    sim::Scenario s;
    s.config = base;
    s.config.thermal.enabled = true;
    s.config.thermal.cooling_scale = cooling_scale;
    s.config.thermal.throttle = false;
    s.workload = workload;
    s.verify = false; // temperature question only; skip the re-run
    sim::ScenarioResult r = sim::SweepSession().runScenario(s);
    return r.thermal_converged &&
           r.t_max_k <= s.config.thermal.t_limit_k;
}

void
designCard(const char *card, const GpuConfig &base)
{
    const std::vector<std::string> workloads = {
        "vectoradd", "scalarprod", "matmul", "blackscholes"};
    // Search window: 0.2x (a big liquid loop) to 4x (a bare plate).
    constexpr double scale_lo = 0.2, scale_hi = 4.0;

    std::printf("=== %s (t_limit %.0f K, ambient %.0f K) ===\n", card,
                base.thermal.t_limit_k, base.thermal.ambient_k);
    std::printf("%-14s %13s %13s %s\n", "workload", "max scale",
                "R_hs [K/W]", "cheapest preset that fits");
    for (const std::string &wl : workloads) {
        if (!coolEnough(base, wl, scale_lo)) {
            std::printf("%-14s %13s %13s %s\n", wl.c_str(), "-", "-",
                        "no cooling in range avoids throttling");
            continue;
        }
        double lo = scale_lo, hi = scale_hi;
        if (coolEnough(base, wl, scale_hi)) {
            lo = scale_hi;
        } else {
            for (int i = 0; i < 24; ++i) {
                double mid = 0.5 * (lo + hi);
                (coolEnough(base, wl, mid) ? lo : hi) = mid;
            }
        }

        // Translate the scale into the effective resistance and the
        // cheapest named preset still inside the budget.
        sim::Scenario probe;
        probe.config = base;
        probe.workload = wl;
        probe.verify = false;
        double area = sim::SweepSession().runScenario(probe).area_mm2;
        double r_hs = thermal::stockHeatsinkResistance(area) * lo;
        const char *preset = "(none fits)";
        double best = -1.0;
        for (const std::string &name :
             ThermalConfig::coolingPresets()) {
            ThermalConfig tc;
            tc.applyCooling(name);
            if (tc.cooling_scale <= lo && tc.cooling_scale > best) {
                best = tc.cooling_scale;
                preset = name == "stock"        ? "stock"
                         : name == "constrained" ? "constrained"
                                                 : "liquid";
            }
        }
        std::printf("%-14s %13.3f %13.3f %s\n", wl.c_str(), lo, r_hs,
                    preset);
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    try {
        designCard("GeForce GT240", GpuConfig::gt240());
        designCard("GeForce GTX580", GpuConfig::gtx580());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "thermal_design: %s\n", e.what());
        return 1;
    }
}
