#include "sim/session.hh"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "power/chip_power.hh"
#include "thermal/thermal.hh"
#include "workloads/workload.hh"

namespace gpusimpow {
namespace sim {

namespace {

/** Fold one finished kernel into a scenario's running totals —
 *  shared by replayed and governed members so their accounting
 *  cannot drift. Summary rows count the kernel and drop it. */
void
accumulateKernel(ScenarioResult &result, RowDetail detail,
                 const std::string &label, bool repeatable, KernelRun run)
{
    result.time_s += run.perf.time_s;
    result.energy_j += run.card_w * run.perf.time_s;
    if (run.thermal.enabled) {
        result.thermal = true;
        result.t_max_k = std::max(result.t_max_k, run.thermal.t_max_k);
        result.throttled |= run.thermal.throttled;
        result.thermal_converged &= run.thermal.converged;
        result.min_freq_scale =
            std::min(result.min_freq_scale, run.thermal.op.freq_scale);
    }
    ++result.kernel_count;
    if (detail == RowDetail::kernels)
        result.kernels.push_back({label, repeatable, std::move(run)});
}

/** Power-model-derived scenario summary columns. */
void
finalizeScenario(ScenarioResult &result, const Simulator &simulator)
{
    result.avg_power_w =
        result.time_s > 0.0 ? result.energy_j / result.time_s : 0.0;
    result.static_w = simulator.powerModel().staticPower();
    result.area_mm2 = simulator.powerModel().area();
    result.vdd = simulator.powerModel().techNode().vdd;
    result.shader_hz = result.scenario.config.clocks.shaderHz();
}

/**
 * Job-scoped power models and thermal networks. Scenarios whose
 * configurations differ at most in their thermal sections share one
 * GpuPowerModel (the model never reads that section). Models with
 * equal thermal blocks (names and areas) under equal thermal
 * sections share one ThermalNetwork (immutable, with a mutex-guarded
 * propagator cache). Slots are assigned up front in scenario order;
 * each is built on first use by whichever worker needs it and then
 * shared by every unit and worker of the job.
 */
class RunModels
{
  public:
    explicit RunModels(const std::vector<Scenario> &scenarios)
    {
        _slot_of.reserve(scenarios.size());
        for (const Scenario &s : scenarios) {
            GpuConfig key = s.config;
            key.thermal = ThermalConfig{};
            // Expansion order keeps equal models close: search back.
            std::size_t m = _models.size();
            while (m > 0 && !(_models[m - 1].key == key))
                --m;
            if (m == 0) {
                _models.emplace_back();
                _models.back().key = std::move(key);
                m = _models.size();
            }
            Model &model = _models[m - 1];
            std::size_t n = no_network;
            if (s.config.thermal.enabled) {
                n = 0;
                while (n < model.networks.size() &&
                       !(model.networks[n].thermal == s.config.thermal))
                    ++n;
                if (n == model.networks.size()) {
                    model.networks.emplace_back();
                    model.networks.back().thermal = s.config.thermal;
                }
            }
            _slot_of.push_back({m - 1, n});
        }
    }

    /** A Simulator for `s` on the job's shared model and network:
     *  the one way a session builds a Simulator, one per scenario. */
    std::unique_ptr<Simulator> simulator(const Scenario &s)
    {
        // Registered (with its description) by submit().
        static obs::Counter &c_builds =
            obs::Registry::instance().counter("engine/simulator_builds");
        c_builds.add(1);
        const Slot slot = _slot_of[s.index];
        Model &model = _models[slot.model];
        std::call_once(model.built, [&] {
            GSP_TRACE_SPAN("sim/setup");
            model.model =
                std::make_shared<const power::GpuPowerModel>(s.config);
        });
        std::shared_ptr<const thermal::ThermalNetwork> net;
        if (slot.network != no_network) {
            Network &n = model.networks[slot.network];
            std::call_once(n.built, [&] {
                n.net = sharedNetwork(model.model->thermalBlocks(),
                                      n.thermal);
            });
            net = n.net;
        }
        return std::make_unique<Simulator>(s.config, model.model,
                                           std::move(net));
    }

  private:
    static constexpr std::size_t no_network = ~std::size_t{0};

    /** A (model, cooling) pair's view of its network. */
    struct Network
    {
        ThermalConfig thermal;
        std::once_flag built;
        std::shared_ptr<const thermal::ThermalNetwork> net;
    };
    /** One built network and what it was built from. */
    struct SharedNetwork
    {
        thermal::BlockSet blocks;
        ThermalConfig thermal;
        std::shared_ptr<const thermal::ThermalNetwork> net;
    };

    /**
     * The job's network for a block decomposition and cooling. A
     * network reads nothing of the power model but its blocks' names
     * and areas, and those do not depend on the supply point, so
     * every supply of a process node shares one network per cooling.
     */
    std::shared_ptr<const thermal::ThermalNetwork>
    sharedNetwork(const thermal::BlockSet &blocks,
                  const ThermalConfig &tc)
    {
        std::lock_guard<std::mutex> lock(_networks_mutex);
        for (const SharedNetwork &n : _networks)
            if (n.thermal == tc && n.blocks == blocks)
                return n.net;
        _networks.push_back(
            {blocks, tc,
             std::make_shared<const thermal::ThermalNetwork>(blocks, tc)});
        return _networks.back().net;
    }

    struct Model
    {
        /** The configuration with its thermal section defaulted. */
        GpuConfig key;
        std::once_flag built;
        std::shared_ptr<const power::GpuPowerModel> model;
        /** std::deque: once_flags never move. */
        std::deque<Network> networks;
    };
    struct Slot
    {
        std::size_t model;
        std::size_t network;
    };

    std::deque<Model> _models;
    /** Per scenario index. */
    std::vector<Slot> _slot_of;
    std::mutex _networks_mutex;
    std::vector<SharedNetwork> _networks;
};

/**
 * What a governed member's clamps re-capture from: the unit's kernel
 * launches and each kernel's entry device memory.
 */
struct EntryStates
{
    std::vector<workloads::KernelLaunch> launches;
    std::vector<perf::GlobalMemory> memory;
};

/**
 * Phase 1 of a work unit on `simulator`: every kernel's timing
 * capture, then the device-vs-host verification, which reads device
 * memory and so travels with the snapshot. With `entries` (a unit
 * with governed members), the launches and a copy of the device
 * memory at each kernel's entry are kept there too.
 */
ActivitySnapshot
captureScenario(const Scenario &scenario, Simulator &simulator,
                const EngineOptions &options, EntryStates *entries)
{
    auto workload =
        workloads::makeWorkload(scenario.workload, scenario.scale);
    auto launches = workload->prepare(simulator.gpu());
    ActivitySnapshot snapshot;
    snapshot.workload = scenario.workload;
    snapshot.scale = scenario.scale;
    snapshot.with_trace = options.with_trace;
    snapshot.sample_interval_s = options.sample_interval_s;
    snapshot.kernels.reserve(launches.size());
    for (const workloads::KernelLaunch &kl : launches) {
        if (entries)
            entries->memory.push_back(simulator.gpu().globalMem());
        KernelSnapshot snap = simulator.capturePerf(
            kl.prog, kl.launch, options.with_trace,
            options.sample_interval_s);
        snap.label = kl.label;
        snap.repeatable = kl.repeatable;
        snapshot.kernels.push_back(std::move(snap));
    }
    snapshot.verified = !scenario.verify || launches.empty() ||
                        workload->verify(simulator.gpu());
    if (entries)
        entries->launches = std::move(launches);
    return snapshot;
}

/**
 * The one unit body, once the unit has its snapshot. The members
 * (sims[j] built for *members[j]) share the snapshot's key, and
 * sims.front() is the unit's capturing Simulator. Replayable members
 * replay through one ReplayGroup, kernels outer, variants inner;
 * each governed member runs Simulator::govern() kernel by kernel,
 * whose clamps re-capture on sims.front() from `entries`. A unit
 * whose snapshot came from memory or the store captures `entries` on
 * its first clamp of a repeatable kernel. Rows are published in member
 * order.
 */
template <typename Publish>
void
runUnit(const std::vector<const Scenario *> &members,
        const std::vector<Simulator *> &sims,
        const ActivitySnapshot &snapshot, EntryStates &entries,
        const EngineOptions &options, RowDetail detail,
        Publish &&publish)
{
    std::vector<ScenarioResult> results(members.size());
    std::vector<std::size_t> replaying, governed;
    std::vector<Simulator *> group_sims;
    for (std::size_t j = 0; j < members.size(); ++j) {
        results[j].scenario = *members[j];
        if (detail == RowDetail::kernels)
            results[j].kernels.reserve(snapshot.kernels.size());
        results[j].min_freq_scale = members[j]->config.clocks.freq_scale;
        if (members[j]->replayable()) {
            replaying.push_back(j);
            group_sims.push_back(sims[j]);
        } else {
            governed.push_back(j);
        }
    }
    if (!replaying.empty()) {
        GSP_TRACE_SPAN("engine/replay");
        ReplayGroup group(group_sims);
        for (const KernelSnapshot &snap : snapshot.kernels) {
            std::vector<KernelRun> &runs = group.replay(snap, detail);
            for (std::size_t i = 0; i < replaying.size(); ++i)
                accumulateKernel(results[replaying[i]], detail, snap.label,
                                 snap.repeatable, std::move(runs[i]));
        }
    }
    Simulator &capturer = *sims.front();
    for (std::size_t j : governed) {
        GSP_TRACE_SPAN("engine/govern");
        for (std::size_t k = 0; k < snapshot.kernels.size(); ++k) {
            const KernelSnapshot &snap = snapshot.kernels[k];
            auto clamp = [&](double freq_scale) {
                if (entries.launches.empty())
                    captureScenario(*members.front(), capturer, options,
                                    &entries);
                capturer.gpu().globalMem() = entries.memory[k];
                const workloads::KernelLaunch &kl = entries.launches[k];
                return capturer.capturePerf(kl.prog, kl.launch,
                                            options.with_trace,
                                            options.sample_interval_s,
                                            freq_scale);
            };
            accumulateKernel(results[j], detail, snap.label,
                             snap.repeatable, sims[j]->govern(snap, clamp));
        }
    }
    for (std::size_t j = 0; j < members.size(); ++j) {
        finalizeScenario(results[j], *sims[j]);
        results[j].verified = true;
        if (results[j].scenario.verify && results[j].kernel_count != 0)
            results[j].verified = snapshot.verified;
        publish(std::move(results[j]));
    }
}

} // namespace

void
EngineOptions::validate() const
{
    if (jobs > max_jobs)
        fatal("EngineOptions: jobs ", jobs, " exceeds the worker cap ",
              max_jobs);
    if (!(sample_interval_s > 0.0))
        fatal("EngineOptions: sample_interval_s ", sample_interval_s,
              " must be > 0; a non-positive period records an empty "
              "waveform");
}

SweepSession::SweepSession(EngineOptions options,
                           store::StoreHandle store)
    : _options(std::move(options)), _store(std::move(store))
{
    _options.validate();
    _jobs = _options.jobs;
    if (_jobs == 0) {
        _jobs = std::thread::hardware_concurrency();
        if (_jobs == 0)
            _jobs = 1;
    }
}

std::string
SweepSession::withTraceOptions(std::string key) const
{
    key += strformat("#trace=%d", _options.with_trace ? 1 : 0);
    if (_options.with_trace)
        key += strformat(" sample=%a", _options.sample_interval_s);
    return key;
}

std::string
SweepSession::storeKey(const Scenario &scenario) const
{
    return withTraceOptions(scenario.snapshotKey());
}

std::shared_ptr<const ActivitySnapshot>
SweepSession::claim(const std::string &key)
{
    {
        std::unique_lock<std::mutex> lock(_mutex);
        for (;;) {
            auto it = _memory.find(key);
            if (it != _memory.end())
                return it->second;
            if (_inflight.insert(key).second)
                break; // claimed: this job captures
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
            release(key, snap);
            return snap;
        }
    }
    return nullptr;
}

void
SweepSession::release(
    const std::string &key,
    const std::shared_ptr<const ActivitySnapshot> &snapshot)
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (snapshot)
        _memory[key] = snapshot;
    _inflight.erase(key);
    _cv.notify_all();
}

ScenarioResult
SweepSession::runScenario(const Scenario &scenario) const
{
    Simulator simulator(scenario.config);
    return runScenario(scenario, simulator);
}

ScenarioResult
SweepSession::runScenario(const Scenario &scenario,
                          Simulator &simulator,
                          ActivitySnapshot *capture,
                          RowDetail detail) const
{
    EntryStates entries;
    ActivitySnapshot snapshot =
        captureScenario(scenario, simulator, _options,
                        scenario.replayable() ? nullptr : &entries);
    ScenarioResult result;
    runUnit({&scenario}, {&simulator}, snapshot, entries, _options,
            detail, [&](ScenarioResult r) { result = std::move(r); });
    if (capture)
        *capture = std::move(snapshot);
    return result;
}

SweepResult
SweepSession::submit(const SweepSpec &spec,
                     const ResultCallback &on_result,
                     RowDetail detail)
{
    GSP_TRACE_SPAN("engine/run");
    const uint64_t t_run0 = obs::monotonicNs();

    // Register every engine-level instrument up front so a metrics
    // dump always carries the full key set — a counter whose path
    // never ran reads 0 instead of being absent.
    obs::Registry &reg = obs::Registry::instance();
    obs::Counter &c_scenarios = reg.counter(
        "engine/scenarios", "scenarios completed by sweep jobs");
    obs::Counter &c_captured = reg.counter(
        "engine/scenarios_captured",
        "work units that ran timing and captured their snapshot");
    obs::Counter &c_replayed = reg.counter(
        "engine/scenarios_replayed",
        "replayable scenarios other than a capturing unit's first "
        "member");
    obs::Counter &c_governed = reg.counter(
        "engine/scenarios_governed",
        "scenarios whose power phase ran under the throttling governor");
    obs::Counter &c_batch_groups = reg.counter(
        "engine/batch_groups", "work units with more than one member");
    // Counted by RunModels::simulator().
    reg.counter("engine/simulator_builds",
                "Simulator constructions on behalf of sweep jobs");
    obs::Counter &c_busy = reg.counter(
        "engine/worker_busy_ns", "worker time spent inside work units");
    obs::Counter &c_idle = reg.counter(
        "engine/worker_idle_ns",
        "worker time from pool start to pool join not spent inside "
        "work units");
    obs::Counter &c_tail = reg.counter(
        "engine/tail_idle_ns",
        "worker time from leaving the work loop to the pool join");
    obs::Histogram &h_group_size = reg.histogram(
        "engine/batch_group_size",
        "work-unit sizes of the memoized (grouped) schedule");
    Simulator::registerPerfCounters();
    power::GpuPowerModel::registerCounters();

    // Telemetry meters its own window of the process-wide registry.
    const obs::MetricsSnapshot metrics_before = reg.snapshot();

    std::vector<Scenario> scenarios = spec.expand();
    SweepResult table(scenarios.size());
    if (scenarios.empty())
        return table; // nothing to do; spawn no workers
    RunModels run_models(scenarios);

    std::size_t total = scenarios.size();

    // Governed scenarios are a property of the spec, not of
    // scheduling — count them up front.
    std::size_t governed = 0;
    for (const Scenario &s : scenarios)
        if (!s.replayable())
            ++governed;
    c_governed.add(governed);

    // Work units the pool pulls from, one per timing-unique snapshot
    // key: its first scenario captures the snapshot (unless memory or
    // the store already has it), every member then replays or runs
    // the governor from it, and exactly one worker ever simulates a
    // key.
    const std::vector<SnapshotUnit> units = snapshotUnits(scenarios);
    for (const SnapshotUnit &unit : units) {
        h_group_size.record(unit.members.size());
        if (unit.members.size() > 1)
            c_batch_groups.add(1);
    }

    unsigned workers = _jobs;
    if (static_cast<std::size_t>(workers) > units.size())
        workers = static_cast<unsigned>(units.size());

    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> replayed{0};
    std::atomic<std::size_t> captured{0};
    std::mutex progress_mutex;

    // First-by-index exception: deterministic regardless of which
    // worker hit it or how completion interleaved.
    std::mutex error_mutex;
    std::size_t error_index = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;

    // Idle time runs to the pool join, so a worker that ran out of
    // units is charged for waiting on the slowest one.
    std::vector<uint64_t> worker_busy_ns(workers, 0);
    std::vector<uint64_t> worker_exit_ns(workers, 0);

    auto worker_loop = [&](unsigned worker_id) {
        // One trace track per worker. No-op while tracing is off.
        obs::Tracer::instance().labelThread(
            strformat("worker-%u", worker_id));
        uint64_t busy_ns = 0;

        for (;;) {
            std::size_t u = cursor.fetch_add(1);
            if (u >= units.size())
                break;
            const uint64_t t_unit0 = obs::monotonicNs();
            const std::vector<std::size_t> &unit = units[u].members;
            // Members publish in ascending index order, so on an
            // exception the first unpublished member is the failing
            // one — deterministic error attribution for groups too.
            std::size_t published_in_unit = 0;
            auto publish = [&](ScenarioResult result) {
                std::size_t idx = result.scenario.index;
                std::size_t completed = done.fetch_add(1) + 1;
                table.set(std::move(result));
                ++published_in_unit;
                c_scenarios.add(1);
                // The result is published before the progress hook
                // runs, so a throwing callback cannot drop it; the
                // callback's exception still surfaces from submit().
                if (on_result) {
                    std::lock_guard<std::mutex> lock(progress_mutex);
                    on_result(table.at(idx), completed, total);
                }
            };
            try {
                // One snapshot serves the whole unit: memory's or the
                // store's for this key (zero timing cost), or one the
                // unit's first scenario captures.
                GSP_TRACE_SPAN("engine/batch_group");
                const Scenario &first = scenarios[unit.front()];
                std::vector<const Scenario *> members;
                std::vector<std::unique_ptr<Simulator>> owned;
                std::vector<Simulator *> sims;
                bool has_governed = false;
                for (std::size_t i : unit) {
                    members.push_back(&scenarios[i]);
                    owned.push_back(run_models.simulator(scenarios[i]));
                    sims.push_back(owned.back().get());
                    has_governed |= !scenarios[i].replayable();
                }
                const std::string key = withTraceOptions(units[u].key);
                std::shared_ptr<const ActivitySnapshot> snapshot =
                    claim(key);
                // Only a governed member's clamp reads entry states.
                EntryStates entries;
                const bool captured_here = !snapshot;
                if (captured_here) {
                    try {
                        GSP_TRACE_SPAN("engine/capture");
                        snapshot = std::make_shared<const ActivitySnapshot>(
                            captureScenario(first, *sims.front(), _options,
                                            has_governed ? &entries
                                                         : nullptr));
                    } catch (...) {
                        // Drop the claim, or waiters on this key
                        // would block forever.
                        release(key, nullptr);
                        throw;
                    }
                    captured.fetch_add(1);
                    c_captured.add(1);
                    // Persist, then release before replaying, so other
                    // jobs waiting on this key unblock immediately and
                    // a waiter that missed memory would find the entry
                    // on disk.
                    if (_store)
                        _store->put(key, *snapshot);
                    release(key, snapshot);
                }
                runUnit(members, sims, *snapshot, entries, _options, detail,
                        [&](ScenarioResult r) {
                    // A replayable member is replayed unless it is
                    // the capturing unit's first member, before
                    // publish() runs the progress hook.
                    if (r.scenario.replayable() &&
                        !(captured_here && r.scenario.index == first.index)) {
                        replayed.fetch_add(1);
                        c_replayed.add(1);
                    }
                    publish(std::move(r));
                });
            } catch (...) {
                std::size_t fail = scenarios[unit[std::min(
                    published_in_unit, unit.size() - 1)]].index;
                std::lock_guard<std::mutex> lock(error_mutex);
                if (fail < error_index) {
                    error_index = fail;
                    error = std::current_exception();
                }
            }
            busy_ns += obs::monotonicNs() - t_unit0;
        }

        worker_busy_ns[worker_id - 1] = busy_ns;
        worker_exit_ns[worker_id - 1] = obs::monotonicNs();
    };

    const uint64_t t_pool0 = obs::monotonicNs();
    if (workers == 1) {
        // Run inline: identical semantics, easier to debug/profile.
        worker_loop(1);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back(worker_loop, w + 1);
        for (std::thread &t : pool)
            t.join();
    }
    const uint64_t t_join = obs::monotonicNs();
    for (unsigned w = 0; w < workers; ++w) {
        c_busy.add(worker_busy_ns[w]);
        c_idle.add(t_join - t_pool0 - worker_busy_ns[w]);
        c_tail.add(t_join - worker_exit_ns[w]);
    }

    SweepTelemetry telemetry;
    telemetry.scenarios = total;
    telemetry.captured = captured.load();
    telemetry.replayed = replayed.load();
    telemetry.governed = governed;
    telemetry.workers = workers;
    telemetry.wall_s =
        static_cast<double>(obs::monotonicNs() - t_run0) * 1e-9;
    telemetry.metrics = reg.snapshot().deltaFrom(metrics_before);
    table.setTelemetry(std::move(telemetry));

    if (error)
        std::rethrow_exception(error);
    return table;
}

} // namespace sim
} // namespace gpusimpow
