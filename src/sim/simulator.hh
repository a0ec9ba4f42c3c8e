/**
 * @file
 * The GPUSimPow top level (Fig. 1): couples the cycle-level
 * performance simulator (activity producer) with the GPGPU-Pow
 * power model (activity consumer) and returns combined results —
 * whole-kernel power reports plus optional power-over-time traces
 * for the measurement testbed.
 *
 * Every kernel runs in two phases: capturePerf() times it on the
 * cycle-level GPU into a KernelSnapshot, and a ReplayGroup (below)
 * evaluates power and thermal behavior from that snapshot. The group
 * is the one replay body: SweepSession::runScenario replays through a
 * group of one, and a sweep replays every member of a work unit
 * through one group.
 * Under a throttling governor the power phase is govern(), the one
 * power-to-timing feedback: it measures the kernel's nominal
 * snapshot on the Simulator's power model, and every clock it clamps
 * to on a model of that clock, each through the model's own
 * evaluator. A clamped measurement is a re-capture of the kernel
 * from its entry device memory, or, for a kernel that may not re-run,
 * the nominal snapshot stretched analytically.
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

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "config/gpu_config.hh"
#include "perf/gpu.hh"
#include "perf/kernel.hh"
#include "power/batched.hh"
#include "power/chip_power.hh"
#include "sim/snapshot.hh"
#include "thermal/thermal.hh"

namespace gpusimpow {

namespace sim {

/**
 * How much of each kernel a result row keeps — a per-job choice (the
 * detail argument of SweepSession::submit) between the two kinds of
 * consumer of sweep rows. Every scenario summary column is
 * bit-identical either way.
 */
enum class RowDetail
{
    /** Full per-kernel rows: activity, the hierarchical report tree,
     *  traces and block temperatures (in-process analysis, oracles). */
    kernels,
    /** Summary columns only: ScenarioResult::kernels stays empty, and
     *  a replayed KernelRun carries just perf.time_s, card_w and the
     *  thermal scalars — no report tree is assembled and no activity
     *  is copied (table consumers: the service, the CLI sweep). */
    summary,
};

} // namespace sim

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
    /** Whole-kernel card power (chip + DRAM), W, from the
     *  evaluation the report is assembled from: bit-identical to
     *  report.totalPower() + report.dram_w, and filled in every row
     *  detail. */
    double card_w = 0.0;
    /** Power waveform when tracing was requested. */
    std::vector<PowerSample> trace;
    /** Thermal solve outcome (enabled == false otherwise). */
    ThermalResult thermal;
};

/**
 * Facade over one simulated GPU and its power model.
 *
 * The cycle-level GPU (the activity producer) is built on first use
 * — gpu() or capturePerf() — so a Simulator that only replays
 * snapshots or answers static/area queries never pays for one.
 * A Simulator serves one scenario: device memory and the carried
 * thermal state live as long as it does. Its configuration and power
 * model never change; a governor clamp is a model local to one
 * govern() call.
 */
class Simulator
{
  public:
    explicit Simulator(const GpuConfig &cfg);
    /**
     * Build on an existing power model and thermal network (null:
     * built here, the network only when cfg enables thermal) instead
     * of constructing them. The model must have been built from a
     * configuration equal to cfg in everything but the thermal
     * section, which the power model never reads, and the network
     * from that model's thermalBlocks() and cfg.thermal —
     * this is how a sweep job shares one model per power-relevant
     * configuration and one network per (model, cooling) across all
     * its Simulators and workers. A governor clamp builds a model of
     * its own for the one kernel it clamps; the network is
     * clock-invariant.
     */
    Simulator(const GpuConfig &cfg,
              std::shared_ptr<const power::GpuPowerModel> power,
              std::shared_ptr<const thermal::ThermalNetwork> network);
    ~Simulator();

    /** The performance-simulated GPU (memory setup, launches); built
     *  on the first call, at the configured clock. */
    perf::Gpu &gpu();

    /** The power model (static/area queries). */
    const power::GpuPowerModel &powerModel() const { return *_power; }

    /** The configuration, at the configured clock (a throttling
     *  clamp shows only in the kernel's ThermalResult::op). */
    const GpuConfig &config() const { return _cfg; }

    /**
     * Phase 1 of the two-phase flow: run the kernel on the
     * performance simulator only, capturing every counter the power
     * and thermal phases consume — the whole-kernel activity, timing,
     * and (when with_trace is set) the per-interval activity deltas
     * behind power traces. No power is evaluated. Runs at the
     * configured clock.
     */
    KernelSnapshot capturePerf(const perf::KernelProgram &prog,
                               const perf::LaunchConfig &launch,
                               bool with_trace = false,
                               double sample_interval_s = 20e-6);
    /**
     * capturePerf() at core-clock scale `freq_scale`: a governor
     * clamp's re-capture. Gpu::run resets every per-kernel timing
     * state and the clock retarget depends on nothing but the
     * configuration and the scale, so the capture is a function of
     * device memory and the clock alone.
     */
    KernelSnapshot capturePerf(const perf::KernelProgram &prog,
                               const perf::LaunchConfig &launch,
                               bool with_trace, double sample_interval_s,
                               double freq_scale);

    /** A governed kernel's re-capture at a clamped core-clock scale,
     *  from the kernel's entry device memory. */
    using Clamp = std::function<KernelSnapshot(double freq_scale)>;

    /**
     * The throttling governor, the one power-to-timing feedback: the
     * power phase of one kernel of a throttle-governed configuration.
     * It measures `snap`, the kernel's capture at the configured
     * clock, and while the steady state overheats bisects the clock
     * on the measured power split, clamps, and measures again, each
     * time from the kernel's entry thermal state. A repeatable kernel
     * (snap.repeatable) is measured at a clamp through `clamp`; any
     * other one is the nominal snapshot stretched analytically (the
     * cycle count stands, every elapsed time scales with the clock)
     * and evaluated on the clamped model.
     */
    KernelRun govern(const KernelSnapshot &snap, const Clamp &clamp);

    /**
     * Register the perf/core_steps, perf/chip_steps,
     * perf/quiet_core_cycles and perf/warp_insts counters
     * capturePerf() adds each kernel's RunResult telemetry to, and
     * sim/timing_model_builds (cycle-level GPUs gpu() constructed),
     * so a metrics dump carries them even when nothing captured.
     */
    static void registerPerfCounters();

    /** Lowest freq_scale the throttling governor will clamp to. */
    static constexpr double min_throttle_freq_scale = 0.25;

    /** Untraced kernels whose transient march may wait for a reader
     *  (see finishThermal) before the queue is marched anyway; a
     *  fixed bound on a long-lived Simulator's memory, not a knob. */
    static constexpr std::size_t max_deferred_marches = 64;

  private:
    const GpuConfig _cfg;
    std::unique_ptr<perf::Gpu> _gpu;
    const std::shared_ptr<const power::GpuPowerModel> _power;

    /** Thermal network (null without thermal), shared through the
     *  constructor or built by it; its blocks() are the
     *  decomposition every per-block vector here follows. */
    std::shared_ptr<const thermal::ThermalNetwork> _network;
    /** Transient temperatures carried across the scenario's
     *  kernels. Lags the kernels in _deferred_marches until
     *  marchDeferred() runs. */
    thermal::ThermalNetwork::State _thermal_state;
    /** One untraced thermal kernel's whole-span march, not yet
     *  applied to _thermal_state. */
    struct DeferredMarch
    {
        std::vector<power::BlockPower> bp;
        double time_s = 0.0;
    };
    /** Untraced kernels in execution order, marched on _power: the
     *  leakage scale does not depend on the clock, so a governed
     *  kernel's clamp leaves its march unchanged. */
    std::vector<DeferredMarch> _deferred_marches;
    /** Per-block power scratch of the transient thermal march. */
    std::vector<double> _block_powers;
    /** Last converged steady-state block temperatures: the warm
     *  start for the next solveSteady. Scoped to the one scenario
     *  this Simulator serves. */
    std::vector<double> _steady_warm;
    /** Buffers of the steady solves, reused across them. */
    thermal::SteadyScratch _steady_scratch;
    /** The whole-kernel evaluation whose leakage a thermal kernel
     *  rescales to its solved temperatures: a copy of the replay
     *  group's nominal one, or the governor's measurement (whose
     *  block split its steady probes read). */
    power::GpuPowerModel::Eval _eval;

    friend class ReplayGroup;

    /**
     * The replay of one kernel, in two halves around its steady
     * solve, so a ReplayGroup can solve every variant's steady state
     * on one network in one lockstep batch. beginReplay() does
     * everything before the solve from the group's traced rows
     * (`batched`, null for an untraced kernel) and nominal
     * evaluation and, without thermal, everything. With thermal on,
     * the kernel then owes replayLane() solved on _network and the
     * result passed to finishReplay() before this Simulator replays
     * anything else.
     */
    KernelRun beginReplay(const KernelSnapshot &snap,
                          const power::BatchedKernelPower *batched,
                          const power::GpuPowerModel::Eval &nominal,
                          sim::RowDetail detail);
    /** The begun kernel's steady lane: its measured block split at
     *  the configured clock, warm-started from this scenario's last
     *  converged solve. Valid until finishReplay(). */
    thermal::SteadyLane replayLane() const;
    /** Complete a begun thermal kernel from its lane's result. */
    void finishReplay(KernelRun &run, const thermal::SteadyResult &steady,
                      const KernelSnapshot &snap, sim::RowDetail detail);
    /** Bring _thermal_state up to date: march every deferred kernel
     *  in order, with the arithmetic an eager march would use. */
    void marchDeferred();
    /** Evaluate the per-interval power (and, with thermal on, march
     *  the transient state) over a snapshot's samples from `batched`,
     *  the replay group's rows (null only without samples);
     *  whole-kernel power is the caller's. Without `keep` (summary
     *  rows) the run gets only perf.time_s and no waveforms, so a
     *  trace without thermal has nothing to do. */
    KernelRun evaluateSamples(const KernelSnapshot &snap,
                              const power::BatchedKernelPower *batched,
                              bool keep);
    /** One governor measurement of a snapshot on `model` (_power, or
     *  a clamp's model) through the model's own evaluator: the
     *  samples and, in _eval, the nominal whole-kernel evaluation. */
    KernelRun measure(const KernelSnapshot &snap,
                      const power::GpuPowerModel &model);
    /** The steady lane of a block split at a clock ratio, on this
     *  Simulator's power model and warm start. */
    thermal::SteadyLane steadyLane(const std::vector<power::BlockPower> &bp,
                                   double freq_ratio) const;
    /** Closed-loop steady solve (a batch of one lane), warm-started
     *  from (and, when it converges, refreshing) _steady_warm. */
    thermal::SteadyResult
    solveSteady(const std::vector<power::BlockPower> &bp,
                double freq_ratio);
    /** Hottest steady-state die-block temperature (DRAM excluded). */
    double dieMax(const thermal::SteadyResult &steady) const;
    /**
     * Shared tail of every thermal kernel: _eval's leakage rescaled
     * to the solved temperatures, card_w and the ThermalResult
     * scalars, plus (with `keep`) the report tree and the block
     * temperatures. `model` evaluated _eval at core-clock scale
     * `freq_scale`. A traced kernel has already marched the transient
     * state sample by sample; an untraced one still owes a march over
     * its whole span. Nothing in the kernel's own result depends on
     * that march, so it is queued in _deferred_marches and applied
     * only when the state is next read — by a traced kernel
     * (evaluateSamples) or a governed one (govern) — or when the
     * queue reaches max_deferred_marches. A Simulator that replays
     * untraced kernels and is then destroyed never marches at all.
     */
    void finishThermal(KernelRun &run, const power::GpuPowerModel &model,
                       double freq_scale, const thermal::SteadyResult &steady,
                       bool with_trace, bool throttled, bool keep);
};

/**
 * The one replay body: phase 2 of every replayable kernel, for
 * Simulators that replay the same snapshot — power-only variants of
 * one timing fingerprint, or a single Simulator
 * (SweepSession::runScenario). Each Simulator carries its own thermal
 * state across the kernels it replays, exactly like a full run.
 *
 * The group builds one evaluator over its distinct power models
 * (Simulators on one model share its row) and, per kernel, evaluates
 * the traced intervals of every model in one pass and the
 * whole-kernel activity once per model. Thermal Simulators on one
 * network solve the kernel's steady states in one lockstep batch, in
 * Simulator order. A variant's result does not depend on the others
 * beside it, so a group of one gives the same bits as a group of
 * many, and as the model's own evaluator (GpuPowerModel::evaluator),
 * through which the throttling governor measures each clock it tries.
 */
class ReplayGroup
{
  public:
    /**
     * The Simulators must outlive the group and be replayable:
     * replay() refuses a throttle-governed one.
     */
    explicit ReplayGroup(std::vector<Simulator *> sims);

    /**
     * Replay one kernel on every Simulator: element j is sims[j]'s
     * run, valid until the next call. For any configuration sharing
     * the snapshot's timing fingerprint (sim::timingFingerprint) the
     * run is bit-identical to replaying a capture made under that
     * configuration: the power-only axes (process node, supply
     * scale, cooling solution) may differ freely between capture and
     * replay. fatal() when a Simulator is throttle-governed: the
     * governor's power-to-clock feedback changes timing, which a
     * replay cannot reproduce; those kernels run through
     * Simulator::govern().
     */
    std::vector<KernelRun> &replay(const KernelSnapshot &snap,
                                   sim::RowDetail detail);

  private:
    std::vector<Simulator *> _sims;
    /** Simulator -> its power model's row of the evaluator. */
    std::vector<std::size_t> _row_of;
    /** Some Simulator marches thermal state, which needs the traced
     *  rows' per-block split. */
    bool _want_blocks = false;
    /** Thermal Simulators by network, in Simulator order. */
    std::vector<std::pair<const thermal::ThermalNetwork *,
                          std::vector<std::size_t>>>
        _net_groups;
    std::unique_ptr<const power::BatchedPowerEvaluator> _evaluator;
    power::BatchedPowerEvaluator::Workspace _ws;
    /** Nominal whole-kernel evaluation per evaluator row. */
    std::vector<power::GpuPowerModel::Eval> _nominal;
    std::vector<power::BatchedKernelPower> _rows;
    thermal::SteadyScratch _steady;
    std::vector<thermal::SteadyLane> _lanes;
    std::vector<thermal::SteadyResult> _steady_out;
    std::vector<KernelRun> _runs;
};

} // namespace gpusimpow

#endif // GPUSIMPOW_SIM_SIMULATOR_HH
