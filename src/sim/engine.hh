/**
 * @file
 * The batch simulation engine: executes every scenario of a SweepSpec
 * on a fixed-size pool of worker threads. Scenarios are independent
 * (each worker owns a private Simulator and Workload instance), so
 * throughput scales with the worker count while results stay
 * bit-identical to a single-threaded run: workers pull scenario
 * indices from a shared atomic cursor and publish into per-index
 * slots of the SweepResult, and any worker exception is re-thrown
 * deterministically (lowest scenario index wins) after the pool has
 * drained.
 *
 * Workers recycle their Simulator across scenarios that share an
 * identical (config, node, operating point) fingerprint — the
 * workload-innermost expansion order makes that the common case — so
 * workload-only sweeps build each power model once per worker instead
 * of once per scenario. Device state is reset between scenarios, so
 * reuse is observationally identical to a fresh Simulator.
 *
 * On top of that sits the two-phase memoization, which is also the
 * one schedule: every replayable scenario joins the work unit of its
 * Scenario::snapshotKey(). A unit's snapshot comes from the external
 * source (EngineOptions::snapshot_source) or from timing its first
 * scenario; every other member — a variant that differs only in
 * power-only axes (process node, vdd_scale, cooling) — replays the
 * power phase from it, traced intervals evaluated together through
 * the batched matrix evaluator (many intervals x many power variants
 * per pass), bit-identical to a full run minus the entire timing
 * simulation. Without memoization, and for throttle-governed
 * scenarios, every scenario is a full simulation of its own.
 */

#ifndef GPUSIMPOW_SIM_ENGINE_HH
#define GPUSIMPOW_SIM_ENGINE_HH

#include <functional>
#include <memory>

#include "sim/sweep.hh"

namespace gpusimpow {
namespace sim {

/**
 * Tuning knobs of the SimulationEngine (and, through SweepSession,
 * of every sweep entry point in the tree).
 *
 * One construction idiom everywhere: chain the named setters and let
 * the consumer (SimulationEngine / SweepSession) call validate() —
 * an incoherent combination fails with a fatal() naming both knobs
 * instead of being silently reinterpreted.
 *
 *     auto opt = EngineOptions()
 *                    .withJobs(4)
 *                    .withMemoize(false)
 *                    .withTrace(true, 10e-6);
 */
struct EngineOptions
{
    /** Hard worker cap: above this, thread overhead only hurts. */
    static constexpr unsigned max_jobs = 1024;

    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    unsigned jobs = 0;
    /** Also produce sampled power waveforms per kernel. */
    bool with_trace = false;
    /** Trace sampling period, s. */
    double sample_interval_s = 20e-6;
    /**
     * Memoize phase-1 activity snapshots across scenarios (and
     * workers): a scenario whose Scenario::snapshotKey() has already
     * been simulated in this run replays its power phase from the
     * cached snapshot instead of re-running timing — the
     * order-of-magnitude lever on sweeps over the power-only axes
     * (process node, vdd_scale, cooling). Scenarios under a
     * throttling governor always fall back to full simulation
     * (power-to-timing feedback). Results are bit-identical either
     * way; `gpusimpow --sweep --no-memo` is the CLI escape hatch and
     * the oracle the memoized path is tested against.
     */
    bool memoize = true;
    /**
     * Called after each scenario finishes (from worker threads, but
     * serialized by the engine): finished result, completed count,
     * total count. Completion order is nondeterministic; only use
     * this for progress display.
     */
    std::function<void(const ScenarioResult &, std::size_t,
                       std::size_t)> progress;

    /**
     * External snapshot provider, consulted (when set, and memoize is
     * on) before the engine captures a replayable scenario's timing:
     * return a snapshot captured under the same Scenario::snapshotKey()
     * and the whole work unit replays from it — zero timing cost;
     * return nullptr and the engine captures as usual. This is how
     * SweepSession plugs the persistent store and its cross-job
     * in-flight dedupe under the scheduler; the call may block (e.g.
     * waiting for another job's in-flight capture of the same key).
     */
    std::function<std::shared_ptr<const ActivitySnapshot>(
        const Scenario &)> snapshot_source;

    /**
     * Called once per snapshot the engine captured after the source
     * declined (snapshot non-null), and once with nullptr if that
     * capture failed — so a source that registered in-flight state on
     * the miss is always released. Runs on worker threads; must be
     * thread-safe. Failures to persist must be handled inside the
     * sink (warn, never throw).
     */
    std::function<void(const Scenario &,
                       const std::shared_ptr<const ActivitySnapshot> &)>
        snapshot_sink;

    // ----- named setters: the one construction idiom -----

    EngineOptions &withJobs(unsigned n) { jobs = n; return *this; }
    EngineOptions &withTrace(bool on, double interval_s = 20e-6)
    {
        with_trace = on;
        sample_interval_s = interval_s;
        return *this;
    }
    EngineOptions &withMemoize(bool on) { memoize = on; return *this; }
    EngineOptions &withProgress(
        std::function<void(const ScenarioResult &, std::size_t,
                           std::size_t)> fn)
    {
        progress = std::move(fn);
        return *this;
    }

    /**
     * Reject incoherent combinations with a fatal() naming the
     * offending knobs:
     *   - jobs above max_jobs (thread-pool runaway);
     *   - a non-positive sampling period (an empty waveform can
     *     never be what the caller wanted, traced or not);
     *   - snapshot hooks without memoization (a store or in-flight
     *     map can only feed the memoized replay path — silently
     *     ignoring the hooks would "work" while persisting nothing).
     * Called by SimulationEngine and SweepSession on construction.
     */
    void validate() const;
};

/** Fixed-size worker pool executing sweeps of independent scenarios. */
class SimulationEngine
{
  public:
    explicit SimulationEngine(EngineOptions options = {});

    /** Effective worker count (options.jobs resolved). */
    unsigned jobs() const { return _jobs; }

    /**
     * Execute every scenario of the spec and return the completed
     * result table in deterministic expansion order.
     *
     * If any scenario throws, the remaining scenarios still run to
     * completion, then the exception of the lowest-indexed failing
     * scenario is re-thrown — so error behavior does not depend on
     * the worker count either.
     */
    SweepResult run(const SweepSpec &spec) const;

    /**
     * Execute one scenario on the calling thread. Exposed so tests
     * and tools can compare single-scenario runs against sweep rows.
     */
    ScenarioResult runScenario(const Scenario &scenario) const;

    /**
     * Execute one scenario on a caller-provided Simulator that was
     * built from an identical configuration (the reuse fast path).
     */
    ScenarioResult runScenario(const Scenario &scenario,
                               Simulator &simulator) const;

    /**
     * Execute one scenario, additionally capturing its phase-1
     * activity snapshot for later replay. The scenario must be
     * replayable(); capture == nullptr behaves like plain
     * runScenario().
     */
    ScenarioResult runScenario(const Scenario &scenario,
                               Simulator &simulator,
                               ActivitySnapshot *capture) const;

    /**
     * Execute one scenario's power phase from a phase-1 snapshot
     * captured under the same Scenario::snapshotKey() — the
     * memoized-replay fast path, bit-identical to a full run.
     */
    ScenarioResult replayScenario(const Scenario &scenario,
                                  const ActivitySnapshot &snapshot,
                                  Simulator &simulator) const;

  private:
    EngineOptions _options;
    unsigned _jobs;
};

} // namespace sim
} // namespace gpusimpow

#endif // GPUSIMPOW_SIM_ENGINE_HH
