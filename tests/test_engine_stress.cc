/**
 * @file
 * Concurrency stress tests of the sweep stack, written to be run
 * under ThreadSanitizer (the CI tsan job builds exactly this suite).
 * They hammer the cross-worker shared state:
 *
 *   - snapshot-key grouping (one timing run per Scenario::snapshotKey()
 *     fanning out into many batched power evaluations),
 *   - progress accounting (serialized callback, done/total counters),
 *
 * using sweeps that mix replayable scenarios with governed (thermal
 * throttling) ones, so replay groups and governed units (each clamp
 * re-capturing on its unit's GPU) run concurrently in one pool. Every
 * assertion doubles as a determinism check: whatever the interleaving,
 * results must be bit-identical to the jobs=1 run.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "row_text.hh"
#include "sim/session.hh"
#include "sim/sweep.hh"

using namespace gpusimpow;
using sim::EngineOptions;
using sim::Scenario;
using sim::ScenarioResult;
using sim::SweepResult;
using sim::SweepSession;
using sim::SweepSpec;

namespace {

/**
 * Mixed sweep: the gt240 half is fully replayable (the node axis is
 * power-only, so each workload's second node replays from the first's
 * snapshot), while the gtx580 half runs under a throttling governor:
 * its units capture once and govern both nodes. 8 scenarios.
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
runWith(const SweepSpec &spec, unsigned jobs)
{
    return SweepSession(EngineOptions().withJobs(jobs)).submit(spec);
}

/** Replays a deterministic schedule must produce: every replayable
 *  scenario but the first member of its snapshot key's unit, which
 *  captures. */
std::size_t
expectedReplays(const SweepSpec &spec)
{
    std::set<std::string> keys;
    std::size_t replays = 0;
    for (const Scenario &s : spec.expand())
        if (!keys.insert(s.snapshotKey()).second && s.replayable())
            ++replays;
    return replays;
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
        SCOPED_TRACE(::testing::Message() << "jobs=" << jobs);
        SweepResult parallel = runWith(spec, jobs);
        test::expectSameRows(serial, parallel);
        // Snapshot-key grouping fixes the work units up front, so the
        // replay count is deterministic whatever the worker count.
        EXPECT_EQ(parallel.telemetry().replayed, expectedReplays(spec))
            << "jobs=" << jobs;
    }
    EXPECT_EQ(serial.telemetry().replayed, expectedReplays(spec));
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
        test::expectSameRows(serial, stressed);
        EXPECT_EQ(stressed.telemetry().replayed, expectedReplays(spec))
            << "repeat=" << repeat;
    }
}

TEST(EngineStress, ProgressAccountingSurvivesContention)
{
    SweepSpec spec = replaySweep();
    std::vector<int> seen(spec.size(), 0);
    std::vector<int> done_hits(spec.size() + 1, 0);
    auto on_result = [&](const ScenarioResult &r, std::size_t done,
                         std::size_t total) {
        // Serialized by the engine's progress mutex: plain writes.
        ASSERT_EQ(total, seen.size());
        ASSERT_LT(r.scenario.index, seen.size());
        seen[r.scenario.index]++;
        ASSERT_GE(done, 1u);
        ASSERT_LE(done, total);
        done_hits[done]++;
    };
    SweepResult result =
        SweepSession(EngineOptions().withJobs(8)).submit(spec, on_result);
    ASSERT_EQ(result.size(), spec.size());
    for (int count : seen)
        EXPECT_EQ(count, 1);
    // The serialized completed-count must hit 1..total exactly once
    // each — a lost update would skip one value and repeat another.
    for (std::size_t done = 1; done <= spec.size(); ++done)
        EXPECT_EQ(done_hits[done], 1) << "done=" << done;
}

TEST(EngineStress, ConcurrentSessionsDoNotShareState)
{
    // Two independent sessions sweeping concurrently from different
    // threads: snapshot memory is per session, so nothing may bleed
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
        test::expectSameRows(baseline, results[t]);
        EXPECT_EQ(results[t].telemetry().replayed, expectedReplays(spec));
    }
}
