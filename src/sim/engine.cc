#include "sim/engine.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "power/batched.hh"
#include "workloads/workload.hh"

namespace gpusimpow {
namespace sim {

namespace {

/** Fold one finished kernel into a scenario's running totals —
 *  shared by the full-simulation and replay paths so their
 *  accounting cannot drift. */
void
accumulateKernel(ScenarioResult &result, const std::string &label,
                 bool repeatable, KernelRun run)
{
    double card_w = run.report.totalPower() + run.report.dram_w;
    result.time_s += run.perf.time_s;
    result.energy_j += card_w * run.perf.time_s;
    if (run.thermal.enabled) {
        result.thermal = true;
        result.t_max_k = std::max(result.t_max_k, run.thermal.t_max_k);
        result.throttled |= run.thermal.throttled;
        result.thermal_converged &= run.thermal.converged;
        result.min_freq_scale =
            std::min(result.min_freq_scale, run.thermal.op.freq_scale);
    }
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

/** True when two configurations differ at most in their thermal
 *  section — the one section the power model never reads. */
bool
samePowerModel(const GpuConfig &a, const GpuConfig &b)
{
    GpuConfig b_cooled = b;
    b_cooled.thermal = a.thermal;
    return a == b_cooled;
}

/**
 * Replay one work unit from `snapshot`, starting at member index
 * `first`: first == 1 when unit[0] was just captured (and published)
 * by the caller, first == 0 when the snapshot came from an external
 * source (EngineOptions::snapshot_source) and every member replays.
 * All replayed members are power-only variants of the same timing
 * fingerprint, replayed kernels outer, variants inner: each variant's
 * Simulator carries its own thermal state across the snapshot's
 * kernels, exactly like a full run. A traced kernel evaluates every
 * variant's intervals in one pass of the batched matrix evaluator
 * (its activity matrix is packed once and multiplied against the
 * whole coefficient stack). Variants that differ only in cooling
 * share one power model and one row of that stack.
 */
template <typename Publish>
void
replayGroup(const std::vector<Scenario> &scenarios,
            const std::vector<std::size_t> &unit, std::size_t first,
            const ActivitySnapshot &snapshot,
            power::BatchedPowerEvaluator::Workspace &batch_ws,
            Publish &&publish, std::atomic<std::size_t> &replayed)
{
    // Registered (with descriptions) by run() before any worker can
    // get here; these lookups just cache the stable references.
    static obs::Counter &c_replayed =
        obs::Registry::instance().counter("engine/scenarios_replayed");
    static obs::Counter &c_builds =
        obs::Registry::instance().counter("engine/simulator_builds");

    const std::size_t n_variants = unit.size() - first;
    std::vector<std::unique_ptr<Simulator>> sims;
    std::vector<ScenarioResult> results(n_variants);
    // Variant -> its power model's row of the batched stack.
    std::vector<std::size_t> row_of(n_variants);
    std::vector<const power::CompiledPowerModel *> models;
    sims.reserve(n_variants);
    bool want_blocks = false;
    for (std::size_t j = 0; j < n_variants; ++j) {
        const Scenario &variant = scenarios[unit[first + j]];
        // Expansion order puts the cooling axis inside node and
        // operating point, so cooling-only variants are neighbours.
        if (j > 0 && samePowerModel(results[j - 1].scenario.config,
                                    variant.config)) {
            sims.push_back(std::make_unique<Simulator>(
                variant.config, sims.back()->sharedPowerModel()));
        } else {
            sims.push_back(std::make_unique<Simulator>(variant.config));
            models.push_back(&sims.back()->powerModel().compiled());
        }
        c_builds.add(1);
        row_of[j] = models.size() - 1;
        // The thermal trace march consumes per-block splits.
        want_blocks |= variant.config.thermal.enabled;
        results[j].scenario = variant;
        results[j].kernels.reserve(snapshot.kernels.size());
        results[j].min_freq_scale = variant.config.clocks.freq_scale;
    }

    std::unique_ptr<power::BatchedPowerEvaluator> evaluator;
    if (snapshot.with_trace)
        evaluator = std::make_unique<power::BatchedPowerEvaluator>(
            std::move(models));
    std::vector<const perf::ChipActivity *> acts;
    std::vector<power::BatchedKernelPower> pre;
    for (const KernelSnapshot &snap : snapshot.kernels) {
        bool use_batch = snap.with_trace && !snap.samples.empty();
        if (use_batch) {
            acts.clear();
            acts.reserve(snap.samples.size());
            for (const ActivitySample &a : snap.samples)
                acts.push_back(&a.delta);
            evaluator->evaluate(acts, want_blocks, batch_ws, pre);
        }
        for (std::size_t j = 0; j < n_variants; ++j) {
            accumulateKernel(
                results[j], snap.label, snap.repeatable,
                sims[j]->replayKernel(
                    snap, use_batch ? &pre[row_of[j]] : nullptr));
        }
    }

    for (std::size_t j = 0; j < n_variants; ++j) {
        finalizeScenario(results[j], *sims[j]);
        // Verification reads device memory — a timing-phase output
        // the snapshot already carries.
        results[j].verified = true;
        if (results[j].scenario.verify && !results[j].kernels.empty())
            results[j].verified = snapshot.verified;
        publish(std::move(results[j]));
        replayed.fetch_add(1);
        c_replayed.add(1);
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
    if ((snapshot_source || snapshot_sink) && !memoize)
        fatal("EngineOptions: snapshot_source/snapshot_sink require "
              "memoize — an external snapshot provider can only feed "
              "the memoized replay path");
}

SimulationEngine::SimulationEngine(EngineOptions options)
    : _options(std::move(options))
{
    _options.validate();
    _jobs = _options.jobs;
    if (_jobs == 0) {
        _jobs = std::thread::hardware_concurrency();
        if (_jobs == 0)
            _jobs = 1;
    }
}

ScenarioResult
SimulationEngine::runScenario(const Scenario &scenario) const
{
    Simulator simulator(scenario.config);
    return runScenario(scenario, simulator);
}

ScenarioResult
SimulationEngine::runScenario(const Scenario &scenario,
                              Simulator &simulator,
                              ActivitySnapshot *capture) const
{
    // A governed scenario cannot be replayed, so capturing one would
    // only poison the cache; drop the request instead.
    const bool replayable = scenario.replayable();
    if (!replayable)
        capture = nullptr;

    ScenarioResult result;
    result.scenario = scenario;

    auto workload =
        workloads::makeWorkload(scenario.workload, scenario.scale);
    auto launches = workload->prepare(simulator.gpu());

    if (capture) {
        capture->workload = scenario.workload;
        capture->scale = scenario.scale;
        capture->with_trace = _options.with_trace;
        capture->sample_interval_s = _options.sample_interval_s;
        capture->kernels.reserve(launches.size());
    }
    result.kernels.reserve(launches.size());
    result.min_freq_scale = scenario.config.clocks.freq_scale;
    for (const workloads::KernelLaunch &kl : launches) {
        KernelRun run;
        if (replayable) {
            // Two-phase explicitly: a captured snapshot feeds the
            // same replay the cache hits will take, so a memoized
            // result is bit-identical by construction.
            KernelSnapshot snap = simulator.capturePerf(
                kl.prog, kl.launch, _options.with_trace,
                _options.sample_interval_s);
            snap.label = kl.label;
            snap.repeatable = kl.repeatable;
            run = simulator.replayKernel(snap);
            if (capture)
                capture->kernels.push_back(std::move(snap));
        } else {
            run = simulator.runKernel(kl.prog, kl.launch,
                                      _options.with_trace,
                                      _options.sample_interval_s,
                                      kl.repeatable);
        }
        accumulateKernel(result, kl.label, kl.repeatable,
                         std::move(run));
    }
    finalizeScenario(result, simulator);
    result.verified = true;
    if (scenario.verify && !result.kernels.empty())
        result.verified = workload->verify(simulator.gpu());
    if (capture)
        capture->verified = result.verified;
    return result;
}

SweepResult
SimulationEngine::run(const SweepSpec &spec) const
{
    GSP_TRACE_SPAN("engine/run");
    const uint64_t t_run0 = obs::monotonicNs();

    // Register every engine-level instrument up front so a metrics
    // dump always carries the full key set — a counter whose path
    // never ran reads 0 instead of being absent.
    obs::Registry &reg = obs::Registry::instance();
    obs::Counter &c_scenarios = reg.counter(
        "engine/scenarios", "scenarios completed by engine runs");
    obs::Counter &c_captured = reg.counter(
        "engine/scenarios_captured",
        "scenarios that ran timing and captured a snapshot");
    // Counted by replayGroup(), which looks the instrument up by name.
    reg.counter("engine/scenarios_replayed",
                "scenarios replayed from a memoized snapshot");
    obs::Counter &c_governed = reg.counter(
        "engine/scenarios_governed",
        "scenarios pinned to full simulation by the governor");
    obs::Counter &c_batch_groups = reg.counter(
        "engine/batch_groups",
        "batched replay groups (work units with replay members)");
    obs::Counter &c_builds = reg.counter(
        "engine/simulator_builds",
        "Simulator constructions on behalf of the engine");
    obs::Counter &c_recycles = reg.counter(
        "engine/simulator_recycles",
        "scenarios served by recycling a worker's Simulator");
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

    // Telemetry meters its own window of the process-wide registry.
    const obs::MetricsSnapshot metrics_before = reg.snapshot();

    std::vector<Scenario> scenarios = spec.expand();
    SweepResult table(scenarios.size());
    if (scenarios.empty())
        return table; // nothing to do; spawn no workers

    std::size_t total = scenarios.size();

    // Governor-pinned scenarios are a property of the spec, not of
    // scheduling — count them up front.
    std::size_t governed = 0;
    for (const Scenario &s : scenarios)
        if (!s.replayable())
            ++governed;
    c_governed.add(governed);

    // Work units the pool pulls from. Under memoization each
    // timing-unique Scenario::snapshotKey() becomes one unit: its
    // first scenario captures the snapshot (unless the external
    // source already has it), every other member replays through
    // the batched matrix evaluator, and exactly one worker ever
    // simulates a key. Without memoization, and for governed
    // scenarios, every scenario is its own full-simulation unit.
    std::vector<std::vector<std::size_t>> units;
    units.reserve(total);
    if (_options.memoize) {
        // lint: unordered-ok(lookup/emplace only, never iterated;
        // unit membership order comes from the ascending scenario
        // index loop below, so hash order cannot reach results)
        std::unordered_map<std::string, std::size_t> unit_of;
        std::vector<std::string> keys = snapshotKeys(scenarios);
        for (std::size_t i = 0; i < total; ++i) {
            if (!scenarios[i].replayable()) {
                units.push_back({i});
                continue;
            }
            auto ins = unit_of.emplace(std::move(keys[i]), units.size());
            if (ins.second)
                units.emplace_back();
            units[ins.first->second].push_back(i);
        }
        for (const auto &unit : units) {
            h_group_size.record(unit.size());
            if (unit.size() > 1)
                c_batch_groups.add(1);
        }
    } else {
        for (std::size_t i = 0; i < total; ++i)
            units.push_back({i});
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

        // Per-worker Simulator cache (single entry), keyed on the
        // scenario's full configuration — which covers architecture,
        // node retarget, operating point and cooling. Scenario order
        // is workload-innermost, so workload-only stretches share one
        // configuration and the worker keeps its Simulator — and with
        // it the power model and GPU — alive across them.
        std::unique_ptr<Simulator> cached;
        GpuConfig cached_cfg;
        // Reusable batched-evaluation scratch, shared by every group
        // this worker replays.
        power::BatchedPowerEvaluator::Workspace batch_ws;

        auto acquire = [&](const Scenario &scenario) -> Simulator & {
            if (cached && cached_cfg == scenario.config) {
                cached->recycle();
                c_recycles.add(1);
            } else {
                cached = std::make_unique<Simulator>(scenario.config);
                cached_cfg = scenario.config;
                c_builds.add(1);
            }
            return *cached;
        };

        for (;;) {
            std::size_t u = cursor.fetch_add(1);
            if (u >= units.size())
                break;
            const uint64_t t_unit0 = obs::monotonicNs();
            const std::vector<std::size_t> &unit = units[u];
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
                // callback's exception still surfaces from run().
                if (_options.progress) {
                    std::lock_guard<std::mutex> lock(progress_mutex);
                    _options.progress(table.at(idx), completed,
                                      total);
                }
            };
            try {
                const Scenario &first = scenarios[unit.front()];
                if (!_options.memoize || !first.replayable()) {
                    GSP_TRACE_SPAN("engine/scenario");
                    publish(runScenario(first, acquire(first)));
                } else {
                    // One snapshot serves the whole unit: either the
                    // external source already has one for this key
                    // (then every member replays, zero timing cost),
                    // or the unit's first scenario captures it and
                    // the power-only variants batch-replay.
                    GSP_TRACE_SPAN("engine/batch_group");
                    std::shared_ptr<const ActivitySnapshot> snapshot;
                    if (_options.snapshot_source)
                        snapshot = _options.snapshot_source(first);
                    std::size_t replay_from = 0;
                    if (!snapshot) {
                        auto captured_snap =
                            std::make_shared<ActivitySnapshot>();
                        try {
                            GSP_TRACE_SPAN("engine/capture");
                            publish(runScenario(first, acquire(first),
                                                captured_snap.get()));
                        } catch (...) {
                            // A source that registered in-flight
                            // state on the miss must be released, or
                            // waiters on this key would block forever.
                            if (_options.snapshot_sink)
                                _options.snapshot_sink(first, nullptr);
                            throw;
                        }
                        captured.fetch_add(1);
                        c_captured.add(1);
                        // Persist before replaying the variants so
                        // other jobs waiting on this key unblock
                        // immediately.
                        if (_options.snapshot_sink)
                            _options.snapshot_sink(first, captured_snap);
                        snapshot = std::move(captured_snap);
                        replay_from = 1;
                    }
                    if (replay_from < unit.size()) {
                        GSP_TRACE_SPAN("engine/replay");
                        replayGroup(scenarios, unit, replay_from,
                                    *snapshot, batch_ws, publish,
                                    replayed);
                    }
                }
            } catch (...) {
                // The failed run may have left the Simulator mid-
                // kernel; never recycle it into another scenario.
                cached.reset();
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

    table.setReplayedScenarios(replayed.load());

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
