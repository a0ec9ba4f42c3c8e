/**
 * @file
 * The batch simulation engine: executes every scenario of a SweepSpec
 * on a fixed-size pool of worker threads. Scenarios are independent
 * (each one gets a private Simulator and Workload instance), so
 * throughput scales with the worker count while results stay
 * bit-identical to a single-threaded run: workers pull scenario
 * indices from a shared atomic cursor and publish into per-index
 * slots of the SweepResult, and any worker exception is re-thrown
 * deterministically (lowest scenario index wins) after the pool has
 * drained.
 *
 * Every scenario runs on a Simulator of its own, built for it on the
 * run's shared power models and thermal networks and destroyed with
 * it, so no governor clamp or thermal state can pass from one
 * scenario to the next. Device memory lives on a unit's capturing
 * Simulator, and every re-capture starts from a kernel's entry
 * memory.
 *
 * The two-phase memoization is also the one schedule: every scenario
 * joins the work unit of its Scenario::snapshotKey()
 * (sim::snapshotKeys() serializes each distinct timing fingerprint
 * once per run), so the engine has one unit kind. A unit's snapshot
 * comes from the external source (EngineOptions::snapshot_source) or
 * from a timing capture of its first scenario, which only captures.
 * Then every replayable member — variants that differ only in
 * power-only axes (process node, vdd_scale, cooling) — replays the
 * power phase from it through one ReplayGroup (sim/simulator.hh),
 * the one replay body: kernels outer, variants inner, traced
 * intervals evaluated together through the batched matrix evaluator
 * (many intervals x many power variants per pass). Only the
 * capturing Simulator builds the cycle-level GPU. A run builds one
 * power model per distinct power-relevant configuration (the
 * configuration without its thermal section) and one thermal network
 * per (thermal blocks, cooling), shared by every unit and worker. A
 * replay group evaluates each kernel once per model and solves its
 * steady states once per network, all lanes in lockstep, so a
 * replayed row is the row of a capture followed by a replay group of
 * one — which is what runScenario() computes, the oracle. The
 * RowDetail argument of run() chooses whether rows keep their
 * per-kernel detail or only the summary columns.
 *
 * A throttle-governed member (power feeds back into timing) takes
 * each kernel's nominal snapshot from the unit too, and runs
 * Simulator::govern() on it. A clamp of a repeatable kernel
 * re-captures that kernel at the clamped clock on the unit's
 * capturing Simulator, from the kernel's entry device memory: a unit
 * with governed members keeps a copy of device memory at each kernel
 * entry when it captures. A unit whose snapshot came from the source
 * runs that capture on its first such clamp; it is not counted as
 * captured and not handed to the sink, since the source already
 * holds the snapshot. Only the clamps need timing, so a warm
 * governed repeat captures nothing unless a repeatable kernel
 * clamps. SweepTelemetry documents how units and members are
 * counted.
 */

#ifndef GPUSIMPOW_SIM_ENGINE_HH
#define GPUSIMPOW_SIM_ENGINE_HH

#include <functional>
#include <memory>

#include "sim/sweep.hh"

namespace gpusimpow {
namespace sim {

/**
 * Per-job result callback, called after each scenario finishes (from
 * worker threads, but serialized by the engine): finished result,
 * completed count, total count. Completion order is
 * nondeterministic; only use this for progress display.
 */
using ResultCallback = std::function<void(const ScenarioResult &,
                                          std::size_t, std::size_t)>;

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
     * External snapshot provider, consulted (when set) before the
     * engine captures a work unit's timing:
     * return a snapshot captured under the same Scenario::snapshotKey()
     * and the whole work unit replays or governs from it — zero
     * timing cost but a governor clamp's; return nullptr and the
     * engine captures as usual. This is how
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
    /**
     * Reject incoherent combinations with a fatal() naming the
     * offending knobs:
     *   - jobs above max_jobs (thread-pool runaway);
     *   - a non-positive sampling period (an empty waveform can
     *     never be what the caller wanted, traced or not).
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
     * result table in deterministic expansion order. `detail` is what
     * each row keeps: every kernel's KernelRun (the default), or only
     * the scenario summary columns, which are bit-identical either
     * way. Table consumers (the service, the CLI sweep) ask for
     * RowDetail::summary and skip building the per-kernel report
     * trees they would never read.
     *
     * If any scenario throws, the remaining scenarios still run to
     * completion, then the exception of the lowest-indexed failing
     * scenario is re-thrown — so error behavior does not depend on
     * the worker count either.
     */
    SweepResult run(const SweepSpec &spec,
                    const ResultCallback &on_result = {},
                    RowDetail detail = RowDetail::kernels) const;

    /**
     * Execute one scenario on the calling thread, on a fresh
     * Simulator. Exposed so tests and tools can compare
     * single-scenario runs against sweep rows.
     */
    ScenarioResult runScenario(const Scenario &scenario) const;

    /**
     * Execute one scenario in full — the oracle of every sweep row
     * and the CLI's single run — on a caller-provided Simulator built
     * for the scenario's configuration: a work unit of this one
     * scenario, whose capture and whose replay or governor run on
     * this Simulator, through the engine's unit body.
     * @param capture when non-null, receives the phase-1 activity
     *        snapshot (a governed scenario's is its nominal-clock
     *        capture)
     * @param detail what the row keeps (see run())
     */
    ScenarioResult runScenario(const Scenario &scenario,
                               Simulator &simulator,
                               ActivitySnapshot *capture = nullptr,
                               RowDetail detail = RowDetail::kernels) const;

  private:
    EngineOptions _options;
    unsigned _jobs;
};

} // namespace sim
} // namespace gpusimpow

#endif // GPUSIMPOW_SIM_ENGINE_HH
