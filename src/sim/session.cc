#include "sim/session.hh"

#include <utility>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "obs/metrics.hh"

namespace gpusimpow {
namespace sim {

SweepSession::SweepSession(EngineOptions options,
                           store::StoreHandle store)
    : _options(std::move(options)), _store(std::move(store))
{
    if (_options.snapshot_source || _options.snapshot_sink)
        fatal("SweepSession: the session owns the snapshot hooks; "
              "set a store handle instead of snapshot_source/"
              "snapshot_sink");
    _options.validate();
}

unsigned
SweepSession::jobs() const
{
    // Engine construction resolves jobs == 0 to the hardware thread
    // count; build a throwaway one so the answer matches submit().
    return SimulationEngine(_options).jobs();
}

std::string
SweepSession::storeKey(const Scenario &scenario) const
{
    std::string key = scenario.snapshotKey();
    key += strformat("#trace=%d", _options.with_trace ? 1 : 0);
    if (_options.with_trace)
        key += strformat(" sample=%a", _options.sample_interval_s);
    return key;
}

std::shared_ptr<const ActivitySnapshot>
SweepSession::source(const Scenario &scenario)
{
    const std::string key = storeKey(scenario);
    {
        std::unique_lock<std::mutex> lock(_mutex);
        for (;;) {
            auto it = _memory.find(key);
            if (it != _memory.end())
                return it->second;
            if (_inflight.find(key) == _inflight.end()) {
                _inflight.insert(key); // claim: this job captures
                break;
            }
            // Another job is capturing this key right now; blocking
            // here is the cross-job dedupe ("two clients never
            // capture the same scenario twice").
            _cv.wait(lock);
        }
    }

    // Claim held. Try the disk (outside the session lock — parsing a
    // snapshot is not cheap) before conceding a capture.
    if (_store) {
        if (auto snap = _store->fetch(key)) {
            std::lock_guard<std::mutex> lock(_mutex);
            _memory[key] = snap;
            _inflight.erase(key);
            _cv.notify_all();
            return snap;
        }
    }
    return nullptr; // engine captures; sink() releases the claim
}

void
SweepSession::sink(
    const Scenario &scenario,
    const std::shared_ptr<const ActivitySnapshot> &snapshot)
{
    const std::string key = storeKey(scenario);
    // Persist before releasing the claim, so a waiter that misses
    // _memory (impossible today, but cheap to keep true) would still
    // find the entry on disk.
    if (snapshot && _store)
        _store->put(key, *snapshot);
    std::lock_guard<std::mutex> lock(_mutex);
    if (snapshot)
        _memory[key] = snapshot;
    // snapshot == nullptr: the capture failed — release the claim
    // with nothing published, so a waiter re-claims and retries
    // rather than blocking forever.
    _inflight.erase(key);
    _cv.notify_all();
}

SweepResult
SweepSession::submit(const SweepSpec &spec,
                     const ResultCallback &on_result,
                     RowDetail detail)
{
    EngineOptions opt = _options;
    opt.snapshot_source = [this](const Scenario &s) { return source(s); };
    opt.snapshot_sink =
        [this](const Scenario &s,
               const std::shared_ptr<const ActivitySnapshot> &snap) {
            sink(s, snap);
        };
    return SimulationEngine(opt).run(spec, on_result, detail);
}

} // namespace sim
} // namespace gpusimpow
