/**
 * @file
 * The oracle of a governed row: the scenario's workload run kernel by
 * kernel through Simulator::runKernel on a fresh Simulator. Its
 * governor re-captures a clamped kernel on that same Simulator from a
 * copy of the kernel's entry memory. The loop shares nothing with the
 * engine's work units but Simulator::govern(), so a unit row equal to
 * it shows that the unit's nominal snapshot, its entry states and its
 * re-captures on another Simulator change no bit.
 */

#ifndef GPUSIMPOW_TESTS_KERNEL_LOOP_HH
#define GPUSIMPOW_TESTS_KERNEL_LOOP_HH

#include <algorithm>
#include <utility>

#include "sim/session.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "workloads/workload.hh"

namespace gpusimpow {
namespace test {

/** `scenario` run through Simulator::runKernel, kernel rows. */
inline sim::ScenarioResult
runKernelLoop(const sim::Scenario &scenario,
              const sim::EngineOptions &options = {})
{
    Simulator simulator(scenario.config);
    sim::ScenarioResult r;
    r.scenario = scenario;
    r.min_freq_scale = scenario.config.clocks.freq_scale;
    auto workload =
        workloads::makeWorkload(scenario.workload, scenario.scale);
    for (const workloads::KernelLaunch &kl :
         workload->prepare(simulator.gpu())) {
        KernelRun run = simulator.runKernel(
            kl.prog, kl.launch, options.with_trace,
            options.sample_interval_s, kl.repeatable);
        r.time_s += run.perf.time_s;
        r.energy_j += run.card_w * run.perf.time_s;
        if (run.thermal.enabled) {
            r.thermal = true;
            r.t_max_k = std::max(r.t_max_k, run.thermal.t_max_k);
            r.throttled |= run.thermal.throttled;
            r.thermal_converged &= run.thermal.converged;
            r.min_freq_scale =
                std::min(r.min_freq_scale, run.thermal.op.freq_scale);
        }
        ++r.kernel_count;
        r.kernels.push_back({kl.label, kl.repeatable, std::move(run)});
    }
    r.avg_power_w = r.time_s > 0.0 ? r.energy_j / r.time_s : 0.0;
    r.static_w = simulator.powerModel().staticPower();
    r.area_mm2 = simulator.powerModel().area();
    r.vdd = simulator.powerModel().techNode().vdd;
    r.shader_hz = scenario.config.clocks.shaderHz();
    r.verified = !scenario.verify || r.kernel_count == 0 ||
                 workload->verify(simulator.gpu());
    return r;
}

} // namespace test
} // namespace gpusimpow

#endif // GPUSIMPOW_TESTS_KERNEL_LOOP_HH
