/**
 * @file
 * The GPUSimPow top level (Fig. 1): couples the cycle-level
 * performance simulator (activity producer) with the GPGPU-Pow
 * power model (activity consumer) and returns combined results —
 * whole-kernel power reports plus optional power-over-time traces
 * for the measurement testbed.
 *
 * When the configuration enables the thermal subsystem the loop is
 * closed: a steady-state RC solve turns the kernel's power into
 * per-block junction temperatures, leakage is re-evaluated at those
 * temperatures, a transient integrator runs alongside the power
 * trace, and (optionally) a throttling governor clamps the core
 * clock until the hottest block respects the temperature limit.
 */

#ifndef GPUSIMPOW_SIM_SIMULATOR_HH
#define GPUSIMPOW_SIM_SIMULATOR_HH

#include <memory>
#include <string>
#include <vector>

#include "config/gpu_config.hh"
#include "perf/gpu.hh"
#include "perf/kernel.hh"
#include "power/chip_power.hh"
#include "sim/snapshot.hh"
#include "thermal/thermal.hh"

namespace gpusimpow {

namespace power {
struct BatchedKernelPower;
}

/** One sampled point of a simulated power waveform. */
struct PowerSample
{
    /** Interval start, s. */
    double t0 = 0.0;
    /** Interval end, s. */
    double t1 = 0.0;
    /** Chip dynamic power over the interval, W. */
    double dynamic_w = 0.0;
    /** Chip static power, W (leakage at the transient block
     *  temperatures when the thermal subsystem is enabled). */
    double static_w = 0.0;
    /** External DRAM power, W. */
    double dram_w = 0.0;

    /** Card-level total (chip + DRAM), W. */
    double total() const { return dynamic_w + static_w + dram_w; }
};

/** One sampled point of the per-block temperature waveform. */
struct ThermalSample
{
    /** Interval start, s. */
    double t0 = 0.0;
    /** Interval end, s. */
    double t1 = 0.0;
    /** Node temperatures at the end of the interval, K: thermal
     *  blocks in BlockSet order, then the heatsink node. */
    std::vector<double> temps_k;
};

/** Thermal outcome of one kernel (empty unless thermal is enabled). */
struct ThermalResult
{
    /** True when the thermal subsystem ran for this kernel. */
    bool enabled = false;
    /** False on thermal runaway (no stable operating temperature at
     *  the applied clock): block_temps_k are clamped at the runaway
     *  cap, and the kernel report's leakage falls back to the
     *  nominal junction temperature, since no steady state exists
     *  to evaluate it at. */
    bool converged = false;
    /** True when the governor clamped the core clock. */
    bool throttled = false;
    /** Fixed-point iterations of the final steady solve. */
    unsigned iterations = 0;
    /** Hottest steady-state *die* block temperature, K. The DRAM
     *  board block (own supply, clock, and rating) is reported in
     *  block_temps_k but excluded here and from the throttling
     *  criterion — the core clock cannot cool it. */
    double t_max_k = 0.0;
    /** Steady-state heatsink temperature, K. */
    double heatsink_k = 0.0;
    /** Operating point the kernel actually ran at (freq_scale
     *  reflects any throttling clamp). */
    OperatingPoint op;
    /** Thermal block names (BlockSet order). */
    std::vector<std::string> block_names;
    /** Steady-state block temperatures, K (BlockSet order). */
    std::vector<double> block_temps_k;
    /** Transient temperature waveform (when tracing was on). */
    std::vector<ThermalSample> trace;

    /** Name of the hottest block. */
    std::string hottestBlock() const;
};

/** Combined result of simulating one kernel. */
struct KernelRun
{
    /** Performance-side results (cycles, activity). */
    perf::RunResult perf;
    /** Whole-kernel power report (Table V structure); leakage is
     *  evaluated at the solved block temperatures when the thermal
     *  subsystem is enabled. */
    power::PowerReport report;
    /** Power waveform when tracing was requested. */
    std::vector<PowerSample> trace;
    /** Thermal solve outcome (enabled == false otherwise). */
    ThermalResult thermal;
};

/** Facade over one simulated GPU and its power model. */
class Simulator
{
  public:
    explicit Simulator(const GpuConfig &cfg);
    ~Simulator();

    /** The performance-simulated GPU (memory setup, launches). */
    perf::Gpu &gpu() { return *_gpu; }

    /** The power model (static/area queries). */
    const power::GpuPowerModel &powerModel() const { return *_power; }

    /** Configuration in use (freq_scale reflects a live throttling
     *  clamp until the next kernel or recycle()). */
    const GpuConfig &config() const { return _cfg; }

    /**
     * Run one kernel and evaluate its power (and, when enabled, its
     * thermal behavior).
     * @param prog kernel program
     * @param launch launch geometry
     * @param with_trace also produce a sampled power waveform
     * @param sample_interval_s trace sampling period
     * @param repeatable the kernel may be re-executed with identical
     *        results — the throttling governor re-runs the kernel at
     *        the clamped clock when it may; otherwise it rescales
     *        the measured run analytically
     */
    KernelRun runKernel(const perf::KernelProgram &prog,
                        const perf::LaunchConfig &launch,
                        bool with_trace = false,
                        double sample_interval_s = 20e-6,
                        bool repeatable = true);

    /**
     * Phase 1 of the two-phase flow: run the kernel on the
     * performance simulator only, capturing every counter the power
     * and thermal phases consume — the whole-kernel activity, timing,
     * and (when with_trace is set) the per-interval activity deltas
     * behind power traces. No power is evaluated.
     */
    KernelSnapshot capturePerf(const perf::KernelProgram &prog,
                               const perf::LaunchConfig &launch,
                               bool with_trace = false,
                               double sample_interval_s = 20e-6);

    /**
     * Phase 2: evaluate power (and thermal behavior, when enabled)
     * from a phase-1 snapshot instead of running timing. For any
     * configuration sharing the snapshot's timing fingerprint
     * (sim::timingFingerprint) the result is bit-identical to
     * runKernel() — the power-only axes (process node, supply scale,
     * cooling solution) may differ freely between capture and replay.
     * fatal() on throttle-governed configurations: the governor's
     * power-to-clock feedback changes timing, which a replay cannot
     * reproduce; run those kernels in full.
     *
     * Traced intervals always read BatchedKernelPower rows: `batched`
     * when an engine group already evaluated this configuration over
     * the snapshot's samples in one multi-variant pass
     * (power/batched.hh), otherwise rows the simulator batches itself
     * at width 1. Either way the rows are bit-identical to the scalar
     * CompiledPowerModel::evaluate() by the batched evaluator's
     * contract.
     */
    KernelRun replayKernel(const KernelSnapshot &snap,
                           const power::BatchedKernelPower *batched =
                               nullptr);

    /**
     * Reset device-visible state so the next workload runs exactly as
     * it would on a freshly constructed Simulator, without rebuilding
     * the (expensive) power model. Restores the configured operating
     * point if the governor clamped it and discards all carried
     * thermal state. Only legal between kernels.
     */
    void recycle();

    /** Lowest freq_scale the throttling governor will clamp to. */
    static constexpr double min_throttle_freq_scale = 0.25;

  private:
    GpuConfig _cfg;
    std::unique_ptr<perf::Gpu> _gpu;
    std::unique_ptr<power::GpuPowerModel> _power;

    /** Configured (pre-throttle) core-clock scale. */
    double _nominal_freq_scale;
    /** Lazily built thermal network + block decomposition. */
    std::unique_ptr<thermal::ThermalNetwork> _network;
    thermal::BlockSet _blocks;
    /** Transient temperatures carried across kernels; reset by
     *  recycle() so simulator reuse stays bit-identical. */
    thermal::ThermalNetwork::State _thermal_state;
    /** Per-block power scratch of the transient thermal march. */
    std::vector<double> _block_powers;
    /** Last converged steady-state block temperatures: the warm
     *  start for the next solveSteady. Scoped to one scenario —
     *  recycle() clears it with the rest of the thermal state, so
     *  simulator reuse stays deterministic. */
    std::vector<double> _steady_warm;
    /** Self-batching state of the trace loops: a single-variant
     *  BatchedPowerEvaluator over this simulator's compiled model
     *  plus its workspace/output buffers, built lazily and
     *  invalidated when the power model is rebuilt. */
    struct SelfBatch;
    std::unique_ptr<SelfBatch> _self_batch;

    void ensureThermal();
    void applyFreqScale(double freq_scale);
    /** Batch-evaluate a snapshot's intervals against this
     *  simulator's own compiled model (see SelfBatch); want_blocks
     *  adds the per-block rows the thermal march consumes. */
    const power::BatchedKernelPower &
    selfBatchRows(const KernelSnapshot &snap, bool want_blocks);
    /** Evaluate the per-interval power (and, with thermal on, march
     *  the transient state) over a snapshot's samples, plus the
     *  whole-kernel nominal-temperature report. The per-interval
     *  values come from `batched` when non-null, else from
     *  selfBatchRows(). */
    KernelRun evaluateSamples(const KernelSnapshot &snap,
                              const power::BatchedKernelPower *batched);
    KernelRun runOnce(const perf::KernelProgram &prog,
                      const perf::LaunchConfig &launch,
                      bool with_trace, double sample_interval_s);
    /** Closed-loop steady solve, warm-started from (and, when it
     *  converges, refreshing) _steady_warm. */
    thermal::SteadyResult
    solveSteady(const std::vector<power::BlockPower> &bp,
                double freq_ratio);
    /** Hottest steady-state die-block temperature (DRAM excluded). */
    double dieMax(const thermal::SteadyResult &steady) const;
    /** Shared tail of every thermal kernel: re-evaluate the report at
     *  the solved temperatures, march the transient state when no
     *  trace already did, and fill the ThermalResult. */
    void finishThermal(KernelRun &run,
                       const std::vector<power::BlockPower> &bp,
                       const thermal::SteadyResult &steady,
                       bool with_trace, bool throttled);
    KernelRun runThermal(const perf::KernelProgram &prog,
                         const perf::LaunchConfig &launch,
                         bool with_trace, double sample_interval_s,
                         bool repeatable);
};

} // namespace gpusimpow

#endif // GPUSIMPOW_SIM_SIMULATOR_HH
