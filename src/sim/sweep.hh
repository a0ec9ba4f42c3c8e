/**
 * @file
 * Batch-sweep vocabulary of the simulation engine: a SweepSpec
 * describes a cartesian product of GPU configurations, workloads, and
 * process nodes (the shape of the paper's Fig. 4/6 campaigns and the
 * Table II configuration comparison); expand() flattens it into an
 * ordered scenario list, and SweepResult collects the per-scenario
 * outcomes in that same deterministic order regardless of how many
 * workers produced them.
 */

#ifndef GPUSIMPOW_SIM_SWEEP_HH
#define GPUSIMPOW_SIM_SWEEP_HH

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "config/gpu_config.hh"
#include "obs/metrics.hh"
#include "sim/simulator.hh"

namespace gpusimpow {
namespace sim {

/** One point of a sweep: a fully-resolved configuration x workload. */
struct Scenario
{
    /** Position in the sweep's deterministic expansion order. */
    std::size_t index = 0;
    /** Configuration to simulate (process node and DVFS operating
     *  point already applied). */
    GpuConfig config;
    /** DVFS operating point this scenario runs at. */
    OperatingPoint op;
    /** Table I workload name ("matmul", "blackscholes", ...). */
    std::string workload;
    /** Problem-size multiplier. */
    unsigned scale = 1;
    /** Run the workload's device-vs-host verification afterwards. */
    bool verify = true;
    /** Human-readable tag, e.g. "GeForce GT240/40nm/matmul". */
    std::string label;

    /**
     * True when this scenario's power phase can be replayed from an
     * activity snapshot captured by any scenario with the same
     * snapshotKey(). The throttling governor is the simulator's only
     * power-to-timing feedback, so everything else qualifies.
     */
    bool replayable() const;

    /**
     * Key of the engine's memoized work units: the timing
     * fingerprint of the configuration plus the workload identity
     * (name, scale, verify). Two scenarios with equal keys produce
     * bit-identical phase-1 results, whatever their process node,
     * supply scale, or cooling solution.
     */
    std::string snapshotKey() const;
};

/**
 * Serialized form of the timing-relevant half of a configuration:
 * the XML fingerprint with every power-only section pinned to fixed
 * values — identity strings, the tech section (node and supply scale
 * energies, not cycles), the thermal section (without the governor,
 * temperature is an output), the empirical calibration constants,
 * PCIe electricals, and the electrical half of the DRAM section (the
 * performance simulator reads only its geometry/timing fields).
 * Configurations with equal fingerprints are cycle-for-cycle,
 * counter-for-counter interchangeable to the performance simulator.
 */
std::string timingFingerprint(const GpuConfig &cfg);

/**
 * Declarative description of a batch experiment: every config is
 * evaluated at every process node, every DVFS operating point, and
 * every workload. Expansion order is config-major, then node, then
 * operating point, then workload, so adding a workload never reorders
 * existing scenarios.
 */
struct SweepSpec
{
    /** Base configurations (e.g. Table II presets, ablation points). */
    std::vector<GpuConfig> configs;
    /** Workload names, resolved through the workload registry. */
    std::vector<std::string> workloads;
    /**
     * Process nodes in nm. Each entry re-targets the config to that
     * node at its node-nominal supply. Empty = keep each config's own
     * node (one pass per config).
     */
    std::vector<unsigned> tech_nodes;
    /**
     * DVFS operating points swept for every (config, node) pair.
     * Empty = one pass at each config's own operating point, with
     * labels and expansion order identical to a spec without the
     * axis. When present, every point (including the identity) gets
     * its own label segment.
     */
    std::vector<OperatingPoint> operating_points;
    /**
     * Cooling presets (ThermalConfig::coolingPresets names) swept
     * between the operating-point and workload axes. Each entry
     * enables the thermal subsystem with that preset, inheriting the
     * base config's ambient/t-limit/throttle settings; empty = keep
     * each config's own thermal section (and pre-axis labels).
     */
    std::vector<std::string> coolings;
    /** Problem-size multiplier forwarded to every workload. */
    unsigned scale = 1;
    /** Run each workload's device-vs-host verification afterwards. */
    bool verify = true;

    /** Number of scenarios expand() will produce. */
    std::size_t size() const;

    /** Flatten into the deterministic scenario order. */
    std::vector<Scenario> expand() const;
};

/** One kernel of a scenario, tagged with its Fig. 6 label. */
struct KernelResult
{
    std::string label;
    /** False for kernels too short to re-run for measurement
     *  (workloads::KernelLaunch::repeatable). */
    bool repeatable = true;
    KernelRun run;
};

/** Everything measured for one scenario. */
struct ScenarioResult
{
    Scenario scenario;
    /** Per-kernel results in launch order. */
    std::vector<KernelResult> kernels;
    /** Simulated duration of the whole kernel sequence, s. */
    double time_s = 0.0;
    /** Card-level energy (chip + DRAM) over the sequence, J. */
    double energy_j = 0.0;
    /** Time-weighted average card power, W. */
    double avg_power_w = 0.0;
    /** Chip static power, W. */
    double static_w = 0.0;
    /** Chip area, mm^2. */
    double area_mm2 = 0.0;
    /** Core supply voltage the power model resolved and used, V. */
    double vdd = 0.0;
    /** Effective shader clock the scenario ran at, Hz. */
    double shader_hz = 0.0;
    /** Result of the workload's verification (true when skipped). */
    bool verified = false;
    /** True when the thermal subsystem ran for this scenario. */
    bool thermal = false;
    /** Hottest steady-state block temperature across kernels, K. */
    double t_max_k = 0.0;
    /** True when any kernel ran with a throttling clamp. */
    bool throttled = false;
    /** False when any kernel hit thermal runaway. */
    bool thermal_converged = true;
    /** Lowest clamped freq_scale across kernels (the configured
     *  scale when nothing throttled). */
    double min_freq_scale = 0.0;

    /** Energy-delay product, J*s. */
    double edp() const { return energy_j * time_s; }
};

/**
 * How a sweep executed, as opposed to what it produced: scheduling
 * counts the engine asserts from its own per-run atomics (so they are
 * exact even when other engines run concurrently in the process),
 * plus the observability registry's delta over the run. Dumped as the
 * `--metrics-json` document; see docs/observability.md for the
 * counter name registry.
 */
struct SweepTelemetry
{
    /** Scenarios executed (== SweepResult::size()). */
    std::size_t scenarios = 0;
    /** Scenarios that ran timing and captured an ActivitySnapshot. */
    std::size_t captured = 0;
    /** Scenarios whose power phase replayed from a snapshot. */
    std::size_t replayed = 0;
    /** Scenarios pinned to full simulation by the throttling
     *  governor's power-to-timing feedback. */
    std::size_t governed = 0;
    /** Worker threads the run actually used. */
    unsigned workers = 0;
    /** Wall-clock duration of SimulationEngine::run(), s. */
    double wall_s = 0.0;
    /**
     * Registry delta over the run (counters, gauges, histograms).
     * The registry is process-wide: when several engines run
     * concurrently their deltas mix here — the scheduling counts
     * above are the per-run source of truth.
     */
    obs::MetricsSnapshot metrics;

    /** The `--metrics-json` document (schema gpusimpow-metrics-1). */
    std::string toJson() const;
};

/**
 * Thread-safe result table of a sweep. Slots are preallocated in
 * scenario order; workers publish each finished ScenarioResult into
 * its own slot, so iteration order always matches SweepSpec::expand()
 * no matter how many workers ran or in which order they finished.
 */
class SweepResult
{
  public:
    SweepResult();
    explicit SweepResult(std::size_t scenario_count);

    /** Publish one finished scenario into its slot (thread-safe). */
    void set(ScenarioResult result);

    /** Number of scenario slots. */
    std::size_t size() const;
    bool empty() const { return size() == 0; }

    /** Scenario result by expansion index. */
    const ScenarioResult &at(std::size_t index) const;

    /**
     * All rows in deterministic expansion order. Unsynchronized
     * view — only iterate after the producing run() has returned
     * (use at() to read single rows while workers may still be
     * publishing).
     */
    const std::vector<ScenarioResult> &rows() const { return _rows; }

    /** Sum of simulated kernel time across scenarios, s. */
    double totalSimulatedTime() const;

    /** Render an aligned summary table (one line per scenario). */
    std::string formatTable() const;

    /** Scenarios whose power phase was replayed from a memoized
     *  activity snapshot (0 when memoization was off). Set by the
     *  engine once the run has drained. */
    std::size_t replayedScenarios() const;
    void setReplayedScenarios(std::size_t n);

    /** Execution telemetry of the run that produced this table
     *  (default-constructed for hand-built tables). Set by the
     *  engine once the run has drained. */
    const SweepTelemetry &telemetry() const { return _telemetry; }
    void setTelemetry(SweepTelemetry telemetry);

  private:
    /** unique_ptr keeps SweepResult movable despite the mutex. */
    std::unique_ptr<std::mutex> _mutex;
    std::vector<ScenarioResult> _rows;
    std::size_t _replayed = 0;
    SweepTelemetry _telemetry;
};

} // namespace sim
} // namespace gpusimpow

#endif // GPUSIMPOW_SIM_SWEEP_HH
