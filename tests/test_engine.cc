/**
 * @file
 * Tests of the sweep stack behind SweepSession — the public entry
 * point — plus the low-level SimulationEngine contracts it builds on:
 * sweep expansion order, determinism across worker counts, the
 * empty-sweep edge case, exception propagation out of worker threads,
 * option validation, and the thread-safety of the SweepResult table.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "sim/engine.hh"
#include "sim/session.hh"
#include "sim/sweep.hh"

using namespace gpusimpow;
using sim::EngineOptions;
using sim::Scenario;
using sim::ScenarioResult;
using sim::SimulationEngine;
using sim::SweepResult;
using sim::SweepSession;
using sim::SweepSpec;

namespace {

/** Small, fast sweep: 2 configs x 2 nodes x 2 workloads. */
SweepSpec
smallSweep()
{
    SweepSpec spec;
    GpuConfig small = GpuConfig::gt240();
    small.clusters = 2;
    spec.configs = {GpuConfig::gt240(), small};
    spec.tech_nodes = {40u, 28u};
    spec.workloads = {"vectoradd", "matmul"};
    return spec;
}

/** Sweeps go through the public entry point, as every front end
 *  (CLI, service) does. */
SweepResult
runWithJobs(const SweepSpec &spec, unsigned jobs)
{
    return SweepSession(EngineOptions().withJobs(jobs)).submit(spec);
}

} // namespace

TEST(SweepSpec, ExpansionOrderIsConfigMajorThenNodeThenWorkload)
{
    SweepSpec spec = smallSweep();
    std::vector<Scenario> scenarios = spec.expand();
    ASSERT_EQ(scenarios.size(), 8u);
    ASSERT_EQ(spec.size(), scenarios.size());

    // Indices are sequential in expansion order.
    for (std::size_t i = 0; i < scenarios.size(); ++i)
        EXPECT_EQ(scenarios[i].index, i);

    // config-major, then node, then workload.
    EXPECT_EQ(scenarios[0].config.clusters, 4u);
    EXPECT_EQ(scenarios[0].config.tech.node_nm, 40u);
    EXPECT_EQ(scenarios[0].workload, "vectoradd");
    EXPECT_EQ(scenarios[1].workload, "matmul");
    EXPECT_EQ(scenarios[2].config.tech.node_nm, 28u);
    EXPECT_EQ(scenarios[4].config.clusters, 2u);
    EXPECT_EQ(scenarios[7].config.clusters, 2u);
    EXPECT_EQ(scenarios[7].config.tech.node_nm, 28u);
    EXPECT_EQ(scenarios[7].workload, "matmul");
}

TEST(SweepSpec, EmptyNodeListKeepsConfiguredNode)
{
    SweepSpec spec;
    spec.configs = {GpuConfig::gtx580()};
    spec.workloads = {"vectoradd"};
    std::vector<Scenario> scenarios = spec.expand();
    ASSERT_EQ(scenarios.size(), 1u);
    EXPECT_EQ(scenarios[0].config.tech.node_nm,
              GpuConfig::gtx580().tech.node_nm);
}

TEST(Engine, EmptySweepReturnsEmptyResult)
{
    SweepSpec spec; // no configs, no workloads
    SweepResult result = runWithJobs(spec, 4);
    EXPECT_EQ(result.size(), 0u);
    EXPECT_TRUE(result.empty());
    EXPECT_EQ(result.rows().size(), 0u);
    EXPECT_DOUBLE_EQ(result.totalSimulatedTime(), 0.0);
}

TEST(Engine, ConfigsWithoutWorkloadsIsEmpty)
{
    SweepSpec spec;
    spec.configs = {GpuConfig::gt240()};
    SweepResult result = runWithJobs(spec, 2);
    EXPECT_TRUE(result.empty());
}

TEST(Engine, DeterministicAcrossWorkerCounts)
{
    SweepSpec spec = smallSweep();
    SweepResult serial = runWithJobs(spec, 1);
    SweepResult parallel = runWithJobs(spec, 8);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const ScenarioResult &a = serial.at(i);
        const ScenarioResult &b = parallel.at(i);
        // Rows correspond to the same scenario...
        EXPECT_EQ(a.scenario.index, i);
        EXPECT_EQ(b.scenario.index, i);
        EXPECT_EQ(a.scenario.label, b.scenario.label);
        // ...and every measured quantity is bit-identical.
        EXPECT_EQ(a.time_s, b.time_s) << a.scenario.label;
        EXPECT_EQ(a.energy_j, b.energy_j) << a.scenario.label;
        EXPECT_EQ(a.avg_power_w, b.avg_power_w) << a.scenario.label;
        EXPECT_EQ(a.static_w, b.static_w) << a.scenario.label;
        EXPECT_EQ(a.area_mm2, b.area_mm2) << a.scenario.label;
        EXPECT_TRUE(a.verified);
        EXPECT_TRUE(b.verified);
        ASSERT_EQ(a.kernels.size(), b.kernels.size());
        for (std::size_t k = 0; k < a.kernels.size(); ++k) {
            EXPECT_EQ(a.kernels[k].label, b.kernels[k].label);
            EXPECT_EQ(a.kernels[k].run.perf.cycles,
                      b.kernels[k].run.perf.cycles);
        }
    }
}

TEST(Engine, RowsMatchSingleScenarioRuns)
{
    // Plain, thermal and throttle-governed sweeps: each row equals a
    // single run of its scenario on a fresh Simulator, so nothing a
    // scenario leaves behind (device memory, carried temperatures, a
    // governor clamp) reaches another one.
    std::vector<SweepSpec> specs(3);
    specs[0].configs = {GpuConfig::gt240()};
    specs[0].workloads = {"vectoradd", "matmul"};
    specs[1].configs = {GpuConfig::gt240()};
    specs[1].coolings = {"stock"};
    specs[1].workloads = {"matmul", "vectoradd"};
    GpuConfig governed = GpuConfig::gtx580();
    governed.thermal.throttle = true;
    specs[2].configs = {governed};
    specs[2].coolings = {"constrained"};
    specs[2].workloads = {"matmul", "vectoradd", "matmul"};

    SimulationEngine engine;
    bool any_throttled = false;
    for (const SweepSpec &spec : specs) {
        SweepResult sweep = runWithJobs(spec, 4);
        std::vector<Scenario> scenarios = spec.expand();
        ASSERT_EQ(sweep.size(), scenarios.size());
        for (const Scenario &s : scenarios) {
            ScenarioResult solo = engine.runScenario(s);
            const ScenarioResult &row = sweep.at(s.index);
            EXPECT_EQ(solo.time_s, row.time_s) << s.label;
            EXPECT_EQ(solo.energy_j, row.energy_j) << s.label;
            EXPECT_EQ(solo.t_max_k, row.t_max_k) << s.label;
            EXPECT_EQ(solo.min_freq_scale, row.min_freq_scale)
                << s.label;
            EXPECT_EQ(solo.throttled, row.throttled) << s.label;
            EXPECT_TRUE(row.verified) << s.label;
            any_throttled |= row.throttled;
        }
    }
    // The governed sweep must actually clamp for the comparison to
    // cover the governor.
    EXPECT_TRUE(any_throttled);
}

TEST(Engine, WorkerExceptionPropagatesToCaller)
{
    SweepSpec spec;
    spec.configs = {GpuConfig::gt240()};
    // The bad workload is surrounded by good ones; the engine must
    // finish the good scenarios and still report the failure.
    spec.workloads = {"vectoradd", "no-such-workload", "matmul"};
    EXPECT_THROW(runWithJobs(spec, 4), FatalError);
    EXPECT_THROW(runWithJobs(spec, 1), FatalError);
}

TEST(Engine, LowestIndexExceptionWinsRegardlessOfJobs)
{
    SweepSpec spec;
    spec.configs = {GpuConfig::gt240()};
    spec.workloads = {"bogus-first", "vectoradd", "bogus-last"};
    for (unsigned jobs : {1u, 3u, 8u}) {
        try {
            runWithJobs(spec, jobs);
            FAIL() << "expected FatalError at jobs=" << jobs;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("bogus-first"),
                      std::string::npos)
                << "jobs=" << jobs << ": got '" << e.what() << "'";
        }
    }
}

TEST(Engine, JobsZeroResolvesToHardwareConcurrency)
{
    EngineOptions opt;
    opt.jobs = 0;
    SimulationEngine engine(opt);
    EXPECT_GE(engine.jobs(), 1u);

    opt.jobs = 3;
    EXPECT_EQ(SimulationEngine(opt).jobs(), 3u);
    // The session reports the same resolution it hands the engine.
    EXPECT_EQ(SweepSession(EngineOptions().withJobs(3)).jobs(), 3u);
    EXPECT_GE(SweepSession(EngineOptions().withJobs(0)).jobs(), 1u);
}

TEST(Engine, OptionsValidateRejectsIncoherentCombinations)
{
    EXPECT_NO_THROW(EngineOptions().validate());

    EngineOptions too_many;
    too_many.jobs = EngineOptions::max_jobs + 1;
    EXPECT_THROW(too_many.validate(), FatalError);
    EXPECT_THROW(SimulationEngine{too_many}, FatalError);

    EngineOptions bad_interval = EngineOptions().withTrace(true);
    bad_interval.sample_interval_s = 0.0;
    EXPECT_THROW(bad_interval.validate(), FatalError);

    // The snapshot hooks feed on memoization; without it they could
    // never fire, so the combination is rejected, not ignored.
    EngineOptions hooked = EngineOptions().withMemoize(false);
    hooked.snapshot_source = [](const Scenario &) { return nullptr; };
    EXPECT_THROW(hooked.validate(), FatalError);
    EXPECT_THROW(SimulationEngine{hooked}, FatalError);

    // Named setters chain and leave the result coherent.
    EngineOptions chained = EngineOptions()
                                .withJobs(4)
                                .withMemoize(false)
                                .withTrace(true, 1e-5);
    EXPECT_NO_THROW(chained.validate());
    EXPECT_EQ(chained.jobs, 4u);
    EXPECT_FALSE(chained.memoize);
    EXPECT_TRUE(chained.with_trace);
    EXPECT_EQ(chained.sample_interval_s, 1e-5);
}

TEST(Engine, ProgressCallbackSeesEveryScenarioExactlyOnce)
{
    SweepSpec spec;
    spec.configs = {GpuConfig::gt240()};
    spec.workloads = {"vectoradd", "matmul", "blackscholes"};

    std::vector<int> seen(spec.size(), 0);
    std::size_t max_done = 0;
    SweepSession session(EngineOptions().withJobs(4));
    session.submit(spec, [&](const ScenarioResult &r,
                             std::size_t done, std::size_t total) {
        // The engine serializes progress callbacks, so plain writes
        // are safe here.
        ASSERT_LT(r.scenario.index, seen.size());
        seen[r.scenario.index]++;
        EXPECT_EQ(total, seen.size());
        EXPECT_GE(done, 1u);
        EXPECT_LE(done, total);
        if (done > max_done)
            max_done = done;
    });
    for (int count : seen)
        EXPECT_EQ(count, 1);
    EXPECT_EQ(max_done, seen.size());
}

TEST(SweepResult, SetIsThreadSafeAndSlotsStayOrdered)
{
    constexpr std::size_t kSlots = 64;
    SweepResult table(kSlots);
    std::atomic<std::size_t> cursor{0};
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
        writers.emplace_back([&]() {
            for (;;) {
                std::size_t i = cursor.fetch_add(1);
                if (i >= kSlots)
                    return;
                ScenarioResult r;
                r.scenario.index = i;
                r.time_s = static_cast<double>(i);
                table.set(std::move(r));
            }
        });
    }
    for (std::thread &t : writers)
        t.join();

    ASSERT_EQ(table.size(), kSlots);
    for (std::size_t i = 0; i < kSlots; ++i) {
        EXPECT_EQ(table.at(i).scenario.index, i);
        EXPECT_DOUBLE_EQ(table.at(i).time_s, static_cast<double>(i));
    }
}

TEST(Engine, IdleTimeRunsToThePoolJoin)
{
    // One long unit (kmeans) and one short one (vectoradd) on two
    // workers: the worker that finishes first waits for the other,
    // and that wait is idle time.
    SweepSpec spec;
    spec.configs = {GpuConfig::gt240()};
    spec.workloads = {"kmeans", "vectoradd"};
    SweepResult r = runWithJobs(spec, 2);
    ASSERT_EQ(r.telemetry().workers, 2u);
    const obs::MetricsSnapshot &m = r.telemetry().metrics;
    const uint64_t busy = m.counter("engine/worker_busy_ns");
    const uint64_t idle = m.counter("engine/worker_idle_ns");
    const uint64_t tail = m.counter("engine/tail_idle_ns");
    EXPECT_GT(tail, 0u);
    EXPECT_GE(idle, tail);
    // Busy plus idle covers both workers over the pool's lifetime,
    // which is all of the run's wall time but set-up and tear-down.
    const double capacity_ns = 2 * r.telemetry().wall_s * 1e9;
    EXPECT_LE(static_cast<double>(busy + idle), capacity_ns);
    EXPECT_GE(static_cast<double>(busy + idle), 0.9 * capacity_ns);
}

TEST(Engine, SnapshotFedSweepBuildsNoTimingModel)
{
    // A cold run captures every timing-unique unit and hands the
    // snapshots to a sink; a second run fed only by them replays
    // every scenario without building a single cycle-level GPU.
    SweepSpec spec = smallSweep();
    spec.coolings = {"stock", "liquid"};
    std::mutex mutex;
    std::map<std::string, std::shared_ptr<const ActivitySnapshot>> kept;

    EngineOptions cold = EngineOptions().withJobs(2);
    cold.snapshot_sink =
        [&](const Scenario &s,
            const std::shared_ptr<const ActivitySnapshot> &snap) {
            std::lock_guard<std::mutex> lock(mutex);
            kept[s.snapshotKey()] = snap;
        };
    SweepResult captured = SimulationEngine(cold).run(spec);
    EXPECT_GE(captured.telemetry().metrics.counter(
                  "sim/timing_model_builds"),
              1u);
    EXPECT_GT(captured.telemetry().captured, 0u);

    EngineOptions warm = EngineOptions().withJobs(2);
    warm.snapshot_source = [&](const Scenario &s) {
        std::lock_guard<std::mutex> lock(mutex);
        return kept.at(s.snapshotKey());
    };
    SweepResult replayed = SimulationEngine(warm).run(spec);
    EXPECT_EQ(replayed.telemetry().metrics.counter(
                  "sim/timing_model_builds"),
              0u);
    EXPECT_EQ(replayed.telemetry().captured, 0u);
    EXPECT_EQ(replayed.telemetry().replayed, replayed.size());
    ASSERT_EQ(replayed.size(), captured.size());
    for (std::size_t i = 0; i < replayed.size(); ++i) {
        EXPECT_EQ(replayed.at(i).energy_j, captured.at(i).energy_j)
            << replayed.at(i).scenario.label;
        EXPECT_EQ(replayed.at(i).t_max_k, captured.at(i).t_max_k)
            << replayed.at(i).scenario.label;
    }
}

TEST(SweepResult, FormatTableListsRowsInExpansionOrder)
{
    SweepSpec spec;
    spec.configs = {GpuConfig::gt240()};
    spec.workloads = {"vectoradd", "matmul"};
    SweepResult result = runWithJobs(spec, 2);
    std::string table = result.formatTable();
    std::size_t first = table.find("vectoradd");
    std::size_t second = table.find("matmul");
    ASSERT_NE(first, std::string::npos);
    ASSERT_NE(second, std::string::npos);
    EXPECT_LT(first, second);
}
