/**
 * @file
 * Kernel-at-a-time oracles on one Simulator. replayKernel() is the
 * power phase of one snapshot through a ReplayGroup of one;
 * runKernel() is a capture followed by that replay or, under the
 * throttling governor, by Simulator::govern(), whose clamps
 * re-capture the kernel on the same Simulator from a copy of its
 * entry memory. runKernelLoop() runs a scenario's workload kernel by
 * kernel through runKernel() on a fresh Simulator: the oracle of a
 * governed row. It shares nothing with the engine's work units but
 * Simulator::govern(), so a unit row equal to it shows that the
 * unit's nominal snapshot, its entry states and its re-captures on
 * another Simulator change no bit.
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

/** `snap` replayed on `simulator` alone (a ReplayGroup of one). */
inline KernelRun
replayKernel(Simulator &simulator, const KernelSnapshot &snap,
             sim::RowDetail detail = sim::RowDetail::kernels)
{
    return std::move(ReplayGroup({&simulator}).replay(snap, detail).front());
}

/**
 * One kernel captured and evaluated on `simulator`: a replay, or
 * govern() under the throttling governor. A governed kernel's clamps
 * re-capture it from a copy of its entry memory; the next kernel
 * starts from the nominal run's exit memory.
 */
inline KernelRun
runKernel(Simulator &simulator, const perf::KernelProgram &prog,
          const perf::LaunchConfig &launch, bool with_trace = false,
          double sample_interval_s = 20e-6, bool repeatable = true)
{
    const bool governed = simulator.config().thermal.enabled &&
                          simulator.config().thermal.throttle;
    perf::GlobalMemory entry;
    if (governed)
        entry = simulator.gpu().globalMem();
    KernelSnapshot snap =
        simulator.capturePerf(prog, launch, with_trace, sample_interval_s);
    snap.repeatable = repeatable;
    if (!governed)
        return replayKernel(simulator, snap);
    perf::GlobalMemory exit = simulator.gpu().globalMem();
    KernelRun run = simulator.govern(snap, [&](double freq_scale) {
        simulator.gpu().globalMem() = entry;
        return simulator.capturePerf(prog, launch, with_trace,
                                     sample_interval_s, freq_scale);
    });
    simulator.gpu().globalMem() = std::move(exit);
    return run;
}

/** `scenario` run through runKernel(), kernel rows. */
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
        KernelRun run = runKernel(simulator, kl.prog, kl.launch,
                                  options.with_trace,
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
