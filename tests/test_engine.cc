/**
 * @file
 * Tests of the sweep stack behind SweepSession — the public entry
 * point: sweep expansion order, the empty-sweep edge case, exception
 * propagation out of worker threads, option validation, and the
 * thread-safety of the SweepResult table, and the schedule of a work
 * unit that mixes replayed and governed members. Rows against worker
 * counts, single-scenario runs and fed snapshots are
 * test_differential's.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "kernel_loop.hh"
#include "obs/metrics.hh"
#include "row_text.hh"
#include "sim/session.hh"
#include "sim/sweep.hh"
#include "store/store.hh"

using namespace gpusimpow;
using sim::EngineOptions;
using sim::Scenario;
using sim::ScenarioResult;
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
    const unsigned hardware = std::thread::hardware_concurrency();
    EXPECT_EQ(SweepSession(EngineOptions().withJobs(0)).jobs(),
              hardware == 0 ? 1u : hardware);
    EXPECT_EQ(SweepSession(EngineOptions().withJobs(3)).jobs(), 3u);
}

TEST(Engine, OptionsValidateRejectsIncoherentCombinations)
{
    EXPECT_NO_THROW(EngineOptions().validate());

    EngineOptions too_many;
    too_many.jobs = EngineOptions::max_jobs + 1;
    EXPECT_THROW(too_many.validate(), FatalError);
    EXPECT_THROW(SweepSession{too_many}, FatalError);

    EngineOptions bad_interval = EngineOptions().withTrace(true);
    bad_interval.sample_interval_s = 0.0;
    EXPECT_THROW(bad_interval.validate(), FatalError);
    EXPECT_THROW(SweepSession{bad_interval}, FatalError);

    // Named setters chain and leave the result coherent.
    EngineOptions chained =
        EngineOptions().withJobs(4).withTrace(true, 1e-5);
    EXPECT_NO_THROW(chained.validate());
    EXPECT_EQ(chained.jobs, 4u);
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

TEST(Engine, ProgressCountsTheScenarioItReports)
{
    // A scenario is counted as captured or replayed before the
    // callback that reports it runs, so a progress display reading
    // the counters never lags: the last call sees every scenario.
    SweepSpec spec;
    spec.configs = {GpuConfig::gt240()};
    spec.workloads = {"vectoradd", "matmul"};
    spec.tech_nodes = {40, 28};
    obs::Registry &reg = obs::Registry::instance();
    obs::Counter &replayed = reg.counter("engine/scenarios_replayed");
    obs::Counter &captured = reg.counter("engine/scenarios_captured");
    for (unsigned jobs : {1u, 2u}) {
        const uint64_t replayed0 = replayed.value();
        const uint64_t captured0 = captured.value();
        std::size_t last_seen = 0;
        SweepSession session(EngineOptions().withJobs(jobs));
        session.submit(spec, [&](const ScenarioResult &,
                                 std::size_t done, std::size_t total) {
            uint64_t counted = replayed.value() - replayed0 +
                               captured.value() - captured0;
            EXPECT_GE(counted, done);
            if (done == total)
                last_seen = counted;
        });
        EXPECT_EQ(last_seen, spec.size()) << "jobs " << jobs;
        EXPECT_EQ(replayed.value() - replayed0, 2u);
    }
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

TEST(Engine, MixedUnitCapturesOnce)
{
    // Per workload, one snapshot key holding a replayed member
    // (thermal off) and a governed one (constrained cooling under the
    // governor), in both member orders. matmul's governor clamps its
    // repeatable kernel on the GTX580; vectoradd's never clamps.
    GpuConfig plain = GpuConfig::gtx580();
    GpuConfig governed = plain;
    governed.thermal.applyCooling("constrained");
    governed.thermal.throttle = true;
    for (bool governed_first : {false, true}) {
        SCOPED_TRACE(governed_first ? "governed first" : "replayed first");
        SweepSpec spec;
        spec.configs = governed_first
                           ? std::vector<GpuConfig>{governed, plain}
                           : std::vector<GpuConfig>{plain, governed};
        spec.workloads = {"vectoradd", "matmul"};
        const std::filesystem::path dir =
            std::filesystem::temp_directory_path() /
            strformat("gsp-mixed-unit-%d", ::getpid());
        std::filesystem::remove_all(dir);

        // Cold: each unit captures once, on its first member. A
        // replayable member is replayed unless it is that first one.
        SweepResult cold =
            SweepSession(EngineOptions().withJobs(2), store::openStore(dir))
                .submit(spec);
        const sim::SweepTelemetry &t = cold.telemetry();
        EXPECT_EQ(t.captured, 2u);
        EXPECT_EQ(t.governed, 2u);
        EXPECT_EQ(t.replayed, governed_first ? 2u : 0u);
        EXPECT_EQ(t.metrics.counter("engine/batch_groups"), 2u);
        EXPECT_EQ(t.metrics.counter("sim/timing_model_builds"), 2u);

        // Each row equals its oracle: runScenario for the replayed
        // member, the runKernel loop for the governed one.
        std::size_t clamped = 0;
        for (const ScenarioResult &row : cold.rows()) {
            SCOPED_TRACE(row.scenario.label);
            EXPECT_TRUE(row.verified);
            const bool replayable = row.scenario.replayable();
            const ScenarioResult oracle =
                replayable ? SweepSession().runScenario(row.scenario)
                           : test::runKernelLoop(row.scenario);
            EXPECT_TRUE(test::sameText(test::rowText(row),
                                       test::rowText(oracle)));
            if (!replayable && row.throttled)
                ++clamped;
        }
        EXPECT_EQ(clamped, 1u);

        // Warm: both snapshots come from the store, and only matmul's
        // unit builds a GPU, to re-capture its clamped kernel.
        SweepResult warm =
            SweepSession(EngineOptions().withJobs(2), store::openStore(dir))
                .submit(spec);
        const sim::SweepTelemetry &w = warm.telemetry();
        EXPECT_EQ(w.metrics.counter("store/hit"), 2u);
        EXPECT_EQ(w.captured, 0u);
        EXPECT_EQ(w.replayed, 2u);
        EXPECT_EQ(w.metrics.counter("sim/timing_model_builds"), clamped);
        test::expectSameRows(cold, warm);
        std::filesystem::remove_all(dir);
    }
}
