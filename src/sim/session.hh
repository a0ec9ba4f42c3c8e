/**
 * @file
 * SweepSession — the single public entry point of the sweep stack.
 * Build one from EngineOptions (plus an optional persistent store
 * handle), then submit() SweepSpecs: per-scenario results stream to
 * the callback as workers finish them, and the completed table
 * returns in deterministic expansion order.
 *
 * The session owns the two cross-job levers the bare engine cannot
 * provide:
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
 * consumes the same hex-float snapshot text whether it came from this
 * run, another job, or disk.
 */

#ifndef GPUSIMPOW_SIM_SESSION_HH
#define GPUSIMPOW_SIM_SESSION_HH

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "sim/engine.hh"
#include "store/store.hh"

namespace gpusimpow {
namespace sim {

/** Long-lived sweep façade over the engine + optional store. */
class SweepSession
{
  public:
    /**
     * The options are validated here (fatal() on incoherence); the
     * session installs its own snapshot_source/snapshot_sink hooks,
     * so options carrying either are rejected.
     */
    explicit SweepSession(EngineOptions options,
                          store::StoreHandle store = nullptr);

    /**
     * Execute one sweep job. `on_result` (when set) streams every
     * finished scenario in completion order: (result, completed
     * count, total count), serialized by the engine. `detail` is this
     * job's row detail (SimulationEngine::run), so a caller sharing a
     * session it does not own picks what it will read.
     * Thread-safe: the service submits concurrent jobs against one
     * session; identical scenarios across them are captured once
     * (see in-flight dedupe above).
     */
    SweepResult submit(const SweepSpec &spec,
                       const ResultCallback &on_result = {},
                       RowDetail detail = RowDetail::kernels);

    /** Effective worker count per job. */
    unsigned jobs() const;

    /** The persistent store, or nullptr when running store-less. */
    const store::StoreHandle &storeHandle() const { return _store; }

    /**
     * Content address of a scenario's snapshot in the store:
     * Scenario::snapshotKey() extended with the trace options, which
     * shape the snapshot payload — a store is shared by processes
     * with different trace settings, unlike the engine's in-run
     * cache, where options are uniform.
     */
    std::string storeKey(const Scenario &scenario) const;

  private:
    std::shared_ptr<const ActivitySnapshot>
    source(const Scenario &scenario);
    void sink(const Scenario &scenario,
              const std::shared_ptr<const ActivitySnapshot> &snapshot);

    EngineOptions _options;
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
