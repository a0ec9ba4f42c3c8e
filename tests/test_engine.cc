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
    SweepSpec spec;
    spec.configs = {GpuConfig::gt240()};
    spec.workloads = {"vectoradd", "matmul"};
    SweepResult sweep = runWithJobs(spec, 4);

    SimulationEngine engine;
    std::vector<Scenario> scenarios = spec.expand();
    ASSERT_EQ(sweep.size(), scenarios.size());
    for (const Scenario &s : scenarios) {
        ScenarioResult solo = engine.runScenario(s);
        const ScenarioResult &row = sweep.at(s.index);
        EXPECT_EQ(solo.time_s, row.time_s) << s.label;
        EXPECT_EQ(solo.energy_j, row.energy_j) << s.label;
    }
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

TEST(Engine, SimulatorReuseIsBitIdenticalToAFreshSimulator)
{
    // Workload-only sweep: every scenario shares one fingerprint, so
    // each worker recycles one Simulator. Results must be
    // indistinguishable from a fresh Simulator per scenario.
    SweepSpec spec;
    spec.configs = {GpuConfig::gt240()};
    spec.workloads = {"vectoradd", "matmul", "blackscholes",
                      "scalarprod"};

    EngineOptions opt;
    opt.jobs = 2;
    SimulationEngine engine(opt);
    SweepResult reused = engine.run(spec);
    std::vector<Scenario> scenarios = spec.expand();
    ASSERT_EQ(reused.size(), scenarios.size());
    for (std::size_t i = 0; i < reused.size(); ++i) {
        const ScenarioResult &a = reused.at(i);
        const ScenarioResult b =
            SimulationEngine().runScenario(scenarios[i]);
        EXPECT_EQ(a.time_s, b.time_s) << a.scenario.label;
        EXPECT_EQ(a.energy_j, b.energy_j) << a.scenario.label;
        EXPECT_EQ(a.avg_power_w, b.avg_power_w) << a.scenario.label;
        EXPECT_EQ(a.static_w, b.static_w) << a.scenario.label;
        EXPECT_TRUE(a.verified) << a.scenario.label;
        EXPECT_TRUE(b.verified) << b.scenario.label;
    }
}

TEST(Engine, SimulatorReuseIsBitIdenticalWithThermalAndThrottling)
{
    // Thermal state (carried transient temperatures, a live
    // throttling clamp) is exactly the kind of hidden per-Simulator
    // state that could leak across recycled scenarios. A reuse sweep
    // over throttling scenarios must stay bit-identical to a fresh
    // Simulator per scenario.
    SweepSpec spec;
    GpuConfig cfg = GpuConfig::gtx580();
    cfg.thermal.throttle = true;
    spec.configs = {cfg};
    spec.coolings = {"constrained"};
    spec.workloads = {"matmul", "vectoradd", "matmul"};

    EngineOptions opt;
    opt.jobs = 1; // one worker recycles through all three
    SweepResult reused = SimulationEngine(opt).run(spec);
    EXPECT_EQ(reused.telemetry().metrics.counter(
                  "engine/simulator_recycles"),
              2u);
    std::vector<Scenario> scenarios = spec.expand();
    ASSERT_EQ(reused.size(), scenarios.size());
    bool any_throttled = false;
    for (std::size_t i = 0; i < reused.size(); ++i) {
        const ScenarioResult &a = reused.at(i);
        const ScenarioResult b =
            SimulationEngine().runScenario(scenarios[i]);
        EXPECT_EQ(a.time_s, b.time_s) << a.scenario.label;
        EXPECT_EQ(a.energy_j, b.energy_j) << a.scenario.label;
        EXPECT_EQ(a.t_max_k, b.t_max_k) << a.scenario.label;
        EXPECT_EQ(a.min_freq_scale, b.min_freq_scale)
            << a.scenario.label;
        EXPECT_EQ(a.throttled, b.throttled) << a.scenario.label;
        any_throttled |= a.throttled;
    }
    // The sweep must actually exercise the clamp for the hygiene
    // check to mean anything.
    EXPECT_TRUE(any_throttled);
}

TEST(Engine, ReuseRecoversAfterAFailedScenario)
{
    // The failing scenario sits between two good ones that share its
    // fingerprint; the worker must drop its cached Simulator on the
    // error and still produce a bit-identical result for the scenario
    // after the failure. run() rethrows and discards its table, so
    // the post-failure result is captured through the progress hook.
    SweepSpec spec;
    spec.configs = {GpuConfig::gt240()};
    spec.workloads = {"vectoradd", "no-such-workload", "matmul"};

    std::vector<ScenarioResult> completed;
    EngineOptions opt;
    opt.jobs = 1; // one worker sees all three in order
    opt.progress = [&](const ScenarioResult &r, std::size_t,
                       std::size_t) { completed.push_back(r); };
    EXPECT_THROW(SimulationEngine(opt).run(spec), FatalError);

    ASSERT_EQ(completed.size(), 2u);
    Scenario matmul = spec.expand()[2];
    ScenarioResult fresh = SimulationEngine().runScenario(matmul);
    EXPECT_EQ(completed[1].scenario.label, matmul.label);
    EXPECT_EQ(completed[1].time_s, fresh.time_s);
    EXPECT_EQ(completed[1].energy_j, fresh.energy_j);
    EXPECT_TRUE(completed[1].verified);
}

TEST(Engine, RecycleCleansADirtiedSimulator)
{
    // Recycling must erase every trace of previous device activity —
    // including junk a misbehaving workload left in global memory —
    // so a recycled Simulator is indistinguishable from a fresh one.
    Scenario scenario;
    scenario.config = GpuConfig::gt240();
    scenario.workload = "matmul";

    SimulationEngine engine;
    ScenarioResult fresh = engine.runScenario(scenario);

    Simulator sim(scenario.config);
    ScenarioResult first = engine.runScenario(scenario, sim);
    EXPECT_EQ(first.energy_j, fresh.energy_j);
    // Dirty the device: junk data and a bumped allocator cursor.
    std::vector<uint32_t> junk(4096, 0xdeadbeefu);
    sim.gpu().allocator().alloc(1 << 20);
    sim.gpu().memcpyToDevice(0x2000, junk.data(),
                             junk.size() * sizeof(junk[0]));
    sim.recycle();
    ScenarioResult again = engine.runScenario(scenario, sim);
    EXPECT_EQ(again.time_s, fresh.time_s);
    EXPECT_EQ(again.energy_j, fresh.energy_j);
    EXPECT_EQ(again.avg_power_w, fresh.avg_power_w);
    EXPECT_TRUE(again.verified);
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
