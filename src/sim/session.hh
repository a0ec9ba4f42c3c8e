/**
 * @file
 * SweepSession — the single public entry point of the sweep stack.
 * Build one from EngineOptions (plus an optional persistent store
 * handle), then submit() SweepSpecs: per-scenario results stream to
 * the callback as workers finish them, and the completed table
 * returns in deterministic expansion order.
 *
 * A submit() executes every scenario of its spec on a fixed-size
 * pool of worker threads. Work units are independent (each scenario
 * gets a private Simulator and Workload instance), so throughput
 * scales with the worker count while results stay bit-identical to
 * a single-threaded run: workers pull unit indices from a shared
 * atomic cursor and publish into per-index slots of the SweepResult,
 * and any worker exception is re-thrown deterministically (lowest
 * scenario index wins) after the pool has drained.
 *
 * Every scenario runs on a Simulator of its own, built for it on the
 * job's shared power models and thermal networks and destroyed with
 * it, so no governor clamp or thermal state can pass from one
 * scenario to the next. Device memory lives on a unit's capturing
 * Simulator, and every re-capture starts from a kernel's entry
 * memory.
 *
 * The two-phase memoization is also the one schedule: every scenario
 * joins the work unit of its Scenario::snapshotKey()
 * (sim::snapshotUnits() groups them, serializing each distinct timing
 * fingerprint once and each unit's key once), so there is one unit
 * kind. A unit's snapshot comes from the session's memory or store,
 * or from a timing capture of its first scenario, which only
 * captures. Then every replayable member — variants that differ only
 * in power-only axes (process node, vdd_scale, cooling) — replays
 * the power phase from it through one ReplayGroup
 * (sim/simulator.hh), the one replay body: kernels outer, variants
 * inner, traced intervals evaluated together through the batched
 * matrix evaluator (many intervals x many power variants per pass).
 * Only the capturing Simulator builds the cycle-level GPU. A job
 * builds one power model per distinct power-relevant configuration
 * (the configuration without its thermal section) and one thermal
 * network per (thermal blocks, cooling), shared by every unit and
 * worker. A replay group evaluates each kernel once per model and
 * solves its steady states once per network, all lanes in lockstep,
 * so a replayed row is the row of a capture followed by a replay
 * group of one — which is what runScenario() computes, the oracle.
 * The RowDetail argument of submit() chooses whether rows keep their
 * per-kernel detail or only the summary columns.
 *
 * A throttle-governed member (power feeds back into timing) takes
 * each kernel's nominal snapshot from the unit too, and runs
 * Simulator::govern() on it. A clamp of a repeatable kernel
 * re-captures that kernel at the clamped clock on the unit's
 * capturing Simulator, from the kernel's entry device memory: a unit
 * with governed members keeps a copy of device memory at each kernel
 * entry when it captures. A unit whose snapshot came from memory or
 * the store runs that capture on its first such clamp; it is not
 * counted as captured and not stored again. Only the clamps need
 * timing, so a warm governed repeat captures nothing unless a
 * repeatable kernel clamps. SweepTelemetry documents how units and
 * members are counted.
 *
 * Across submits the session adds two levers:
 *
 *  - persistence: snapshots captured by any submit() are written to
 *    the store (content-addressed by storeKey()) and later submits —
 *    in this process or the next — replay from them, so a warm store
 *    answers a repeat sweep with zero timing captures;
 *
 *  - in-flight dedupe: concurrent submit() calls (the sweep
 *    service's concurrent client jobs) that need the same snapshot
 *    key elect exactly one capturer; everyone else blocks until the
 *    snapshot is published and then replays. Two clients never
 *    capture the same scenario twice.
 *
 * Everything is bit-identical to a cold run by construction: replay
 * consumes the same snapshot whether it came from this job, another
 * job (shared in memory, never serialized) or disk (the store's
 * binary record, whose doubles travel as their IEEE bits).
 */

#ifndef GPUSIMPOW_SIM_SESSION_HH
#define GPUSIMPOW_SIM_SESSION_HH

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "sim/sweep.hh"
#include "store/store.hh"

namespace gpusimpow {
namespace sim {

/**
 * Per-job result callback, called after each scenario finishes (from
 * worker threads, but serialized by the session): finished result,
 * completed count, total count. Completion order is
 * nondeterministic; only use this for progress display.
 */
using ResultCallback = std::function<void(const ScenarioResult &,
                                          std::size_t, std::size_t)>;

/**
 * Tuning knobs of a SweepSession, and so of every sweep entry point
 * in the tree.
 *
 * One construction idiom everywhere: chain the named setters and let
 * the session call validate() — an incoherent combination fails with
 * a fatal() naming the knob instead of being silently reinterpreted.
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
     * Called by the SweepSession constructor.
     */
    void validate() const;
};

/** Long-lived sweep front end: worker pool, store and dedupe. */
class SweepSession
{
  public:
    /** The options are validated here (fatal() on incoherence). */
    explicit SweepSession(EngineOptions options = {},
                          store::StoreHandle store = nullptr);

    /**
     * Execute one sweep job and return the completed result table in
     * deterministic expansion order. `on_result` (when set) streams
     * every finished scenario in completion order: (result, completed
     * count, total count), serialized by the session. `detail` is
     * what each row keeps: every kernel's KernelRun (the default), or
     * only the scenario summary columns, which are bit-identical
     * either way. Table consumers (the service, the CLI sweep) ask
     * for RowDetail::summary and skip building the per-kernel report
     * trees they would never read.
     *
     * If any scenario throws, the remaining scenarios still run to
     * completion, then the exception of the lowest-indexed failing
     * scenario is re-thrown — so error behavior does not depend on
     * the worker count either.
     *
     * Thread-safe: the service submits concurrent jobs against one
     * session; identical scenarios across them are captured once
     * (see in-flight dedupe above).
     */
    SweepResult submit(const SweepSpec &spec,
                       const ResultCallback &on_result = {},
                       RowDetail detail = RowDetail::kernels);

    /** Effective worker count per job (options.jobs resolved). */
    unsigned jobs() const { return _jobs; }

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
     * this Simulator, through the session's unit body. Touches
     * neither the store nor the session's snapshot memory, so any
     * number of threads may call it at once.
     * @param capture when non-null, receives the phase-1 activity
     *        snapshot (a governed scenario's is its nominal-clock
     *        capture)
     * @param detail what the row keeps (see submit())
     */
    ScenarioResult runScenario(const Scenario &scenario,
                               Simulator &simulator,
                               ActivitySnapshot *capture = nullptr,
                               RowDetail detail = RowDetail::kernels) const;

    /**
     * Content address of a scenario's snapshot in the store:
     * Scenario::snapshotKey() extended with the trace options, which
     * shape the snapshot payload — a store is shared by processes
     * with different trace settings, unlike one session, whose
     * options are uniform.
     */
    std::string storeKey(const Scenario &scenario) const;

  private:
    /** A snapshot key extended with the trace options: storeKey(). */
    std::string withTraceOptions(std::string key) const;

    /**
     * The snapshot stored under `key` (from memory, or the store),
     * or nullptr with the key claimed: the caller captures, then
     * release()s the claim. Blocks while another job holds the
     * claim.
     */
    std::shared_ptr<const ActivitySnapshot> claim(const std::string &key);
    /**
     * Publish a snapshot to memory under a claimed key and drop the
     * claim; a null snapshot (the capture failed) drops it with
     * nothing published, so a waiter re-claims and retries.
     */
    void release(const std::string &key,
                 const std::shared_ptr<const ActivitySnapshot> &snapshot);

    EngineOptions _options;
    unsigned _jobs;
    store::StoreHandle _store;

    std::mutex _mutex;
    std::condition_variable _cv;
    /** Keys some job is currently capturing; waiters block on _cv. */
    std::set<std::string> _inflight;
    /**
     * Snapshots fulfilled during this session's lifetime, so dedupe
     * works store-less and repeat queries skip the disk. Bounded by
     * the distinct snapshot keys submitted to this session.
     */
    std::map<std::string, std::shared_ptr<const ActivitySnapshot>>
        _memory;
};

} // namespace sim
} // namespace gpusimpow

#endif // GPUSIMPOW_SIM_SESSION_HH
