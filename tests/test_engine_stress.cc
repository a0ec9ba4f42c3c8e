/**
 * @file
 * Concurrency stress tests of the sweep engine, written to be run
 * under ThreadSanitizer (the CI tsan job builds exactly this suite).
 * They hammer the cross-worker shared state:
 *
 *   - snapshot-key grouping (one timing run per Scenario::snapshotKey()
 *     fanning out into many batched power evaluations),
 *   - progress accounting (serialized callback, done/total counters),
 *
 * using sweeps that mix replayable scenarios with governed (thermal
 * throttling) ones, so both the replay fast path and the
 * full-simulation fallback run concurrently in one pool. Every
 * assertion doubles as a determinism check: whatever the interleaving,
 * results must be bit-identical to the jobs=1 run.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "sim/engine.hh"
#include "sim/sweep.hh"

using namespace gpusimpow;
using sim::EngineOptions;
using sim::Scenario;
using sim::ScenarioResult;
using sim::SimulationEngine;
using sim::SweepResult;
using sim::SweepSpec;

namespace {

/**
 * Mixed sweep: the gt240 half is fully replayable (the node axis is
 * power-only, so each workload's second node replays from the first's
 * snapshot), while the gtx580 half runs under a throttling governor
 * and must take the full-simulation path every time. 8 scenarios.
 */
SweepSpec
mixedSweep()
{
    SweepSpec spec;
    GpuConfig governed = GpuConfig::gtx580();
    governed.thermal.throttle = true;
    spec.configs = {GpuConfig::gt240(), governed};
    spec.tech_nodes = {40u, 28u};
    spec.coolings = {"constrained"};
    spec.workloads = {"vectoradd", "matmul"};
    return spec;
}

/** Replayable-only sweep with high variant fan-out per snapshot key:
 *  one timing run feeds three power variants per workload. */
SweepSpec
replaySweep()
{
    SweepSpec spec;
    spec.configs = {GpuConfig::gt240()};
    spec.tech_nodes = {40u, 32u, 28u};
    spec.workloads = {"vectoradd", "matmul", "blackscholes"};
    return spec;
}

SweepResult
runWith(const SweepSpec &spec, unsigned jobs, bool memoize = true)
{
    EngineOptions opt;
    opt.jobs = jobs;
    opt.memoize = memoize;
    return SimulationEngine(opt).run(spec);
}

/** Replays a deterministic schedule must produce: every replayable
 *  scenario beyond the first of its snapshot-key group. */
std::size_t
expectedReplays(const SweepSpec &spec)
{
    std::map<std::string, std::size_t> groups;
    for (const Scenario &s : spec.expand())
        if (s.replayable())
            groups[s.snapshotKey()]++;
    std::size_t replays = 0;
    for (const auto &entry : groups)
        replays += entry.second - 1;
    return replays;
}

void
expectBitIdentical(const SweepResult &a, const SweepResult &b,
                   const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const ScenarioResult &x = a.at(i);
        const ScenarioResult &y = b.at(i);
        EXPECT_EQ(x.scenario.label, y.scenario.label) << what;
        EXPECT_EQ(x.time_s, y.time_s) << what << ": " << x.scenario.label;
        EXPECT_EQ(x.energy_j, y.energy_j)
            << what << ": " << x.scenario.label;
        EXPECT_EQ(x.avg_power_w, y.avg_power_w)
            << what << ": " << x.scenario.label;
        EXPECT_EQ(x.static_w, y.static_w)
            << what << ": " << x.scenario.label;
        EXPECT_EQ(x.vdd, y.vdd) << what << ": " << x.scenario.label;
        EXPECT_EQ(x.t_max_k, y.t_max_k)
            << what << ": " << x.scenario.label;
        EXPECT_EQ(x.throttled, y.throttled)
            << what << ": " << x.scenario.label;
        EXPECT_EQ(x.min_freq_scale, y.min_freq_scale)
            << what << ": " << x.scenario.label;
        ASSERT_EQ(x.kernels.size(), y.kernels.size())
            << what << ": " << x.scenario.label;
        for (std::size_t k = 0; k < x.kernels.size(); ++k)
            EXPECT_EQ(x.kernels[k].run.perf.cycles,
                      y.kernels[k].run.perf.cycles)
                << what << ": " << x.scenario.label;
    }
}

} // namespace

TEST(EngineStress, MixedSweepIsDeterministicAcrossWorkerCounts)
{
    SweepSpec spec = mixedSweep();

    // The sweep must actually be mixed for the test to mean anything.
    std::size_t replayable = 0, governed = 0;
    for (const Scenario &s : spec.expand())
        (s.replayable() ? replayable : governed)++;
    ASSERT_GT(replayable, 0u);
    ASSERT_GT(governed, 0u);

    SweepResult serial = runWith(spec, 1);
    unsigned hw = std::thread::hardware_concurrency();
    for (unsigned jobs : {2u, 8u, hw ? hw : 4u}) {
        SweepResult parallel = runWith(spec, jobs);
        expectBitIdentical(serial, parallel,
                           ("jobs=" + std::to_string(jobs)).c_str());
        // Snapshot-key grouping fixes the work units up front, so the
        // replay count is deterministic whatever the worker count.
        EXPECT_EQ(parallel.replayedScenarios(), expectedReplays(spec))
            << "jobs=" << jobs;
    }
    EXPECT_EQ(serial.replayedScenarios(), expectedReplays(spec));
}

TEST(EngineStress, GroupedReplayContentionKeepsReplayCountExact)
{
    // High fan-out (3 variants per key) with 8 workers racing
    // through the groups: grouping must still yield exactly one
    // timing run per key and bit-identical rows.
    SweepSpec spec = replaySweep();
    SweepResult serial = runWith(spec, 1);
    for (int repeat = 0; repeat < 3; ++repeat) {
        SweepResult stressed = runWith(spec, 8);
        expectBitIdentical(serial, stressed, "8-way replay sweep");
        EXPECT_EQ(stressed.replayedScenarios(), expectedReplays(spec))
            << "repeat=" << repeat;
    }
}

TEST(EngineStress, MemoizeKnobIsBitIdenticalUnderContention)
{
    SweepSpec spec = mixedSweep();
    SweepResult memoized = runWith(spec, 8, true);
    SweepResult unmemoized = runWith(spec, 8, false);

    expectBitIdentical(memoized, unmemoized, "memoize off");
    EXPECT_EQ(memoized.replayedScenarios(), expectedReplays(spec));
    EXPECT_EQ(unmemoized.replayedScenarios(), 0u);
}

TEST(EngineStress, ProgressAccountingSurvivesContention)
{
    SweepSpec spec = replaySweep();
    std::vector<int> seen(spec.size(), 0);
    std::vector<int> done_hits(spec.size() + 1, 0);
    EngineOptions opt;
    opt.jobs = 8;
    opt.progress = [&](const ScenarioResult &r, std::size_t done,
                       std::size_t total) {
        // Serialized by the engine's progress mutex: plain writes.
        ASSERT_EQ(total, seen.size());
        ASSERT_LT(r.scenario.index, seen.size());
        seen[r.scenario.index]++;
        ASSERT_GE(done, 1u);
        ASSERT_LE(done, total);
        done_hits[done]++;
    };
    SweepResult result = SimulationEngine(opt).run(spec);
    ASSERT_EQ(result.size(), spec.size());
    for (int count : seen)
        EXPECT_EQ(count, 1);
    // The serialized completed-count must hit 1..total exactly once
    // each — a lost update would skip one value and repeat another.
    for (std::size_t done = 1; done <= spec.size(); ++done)
        EXPECT_EQ(done_hits[done], 1) << "done=" << done;
}

TEST(EngineStress, ConcurrentEnginesDoNotShareState)
{
    // Two independent engines sweeping concurrently from different
    // threads: snapshot groups are per-run, so nothing may bleed
    // between them (also exercises the lazily-initialized kernel
    // dispatch and logging singletons from multiple pools at once).
    SweepSpec spec;
    spec.configs = {GpuConfig::gt240()};
    spec.tech_nodes = {40u, 28u};
    spec.workloads = {"vectoradd", "scalarprod"};

    SweepResult baseline = runWith(spec, 1);
    std::vector<SweepResult> results(2);
    std::vector<std::thread> drivers;
    for (std::size_t t = 0; t < results.size(); ++t)
        drivers.emplace_back(
            [&results, &spec, t]() { results[t] = runWith(spec, 4); });
    for (std::thread &t : drivers)
        t.join();
    for (std::size_t t = 0; t < results.size(); ++t) {
        expectBitIdentical(baseline, results[t], "concurrent engine");
        EXPECT_EQ(results[t].replayedScenarios(), expectedReplays(spec));
    }
}
