/**
 * @file
 * Tests of the two-phase simulation flow at the Simulator level: a
 * capture replayed on another Simulator must equal the capturing
 * Simulator's own run, traced intervals must match the scalar
 * evaluator, and the cache key must collapse exactly the
 * timing-invariant axes and split everything else. Sweep rows
 * against full simulation are test_differential's; the stored form
 * of a snapshot is test_store's.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "kernel_loop.hh"
#include "power_tree_reference.hh"
#include "row_text.hh"
#include "sim/simulator.hh"
#include "sim/snapshot.hh"
#include "sim/sweep.hh"
#include "workloads/workload.hh"

using namespace gpusimpow;
using sim::Scenario;
using sim::SweepSpec;

namespace {

/** Per-kernel launches of a workload against a given simulator. */
std::vector<workloads::KernelLaunch>
prepareWorkload(Simulator &sim, const std::string &name)
{
    auto wl = workloads::makeWorkload(name, 1);
    return wl->prepare(sim.gpu());
}

} // namespace

TEST(Snapshot, CaptureReplayMatchesRunKernelWithTrace)
{
    GpuConfig cfg = GpuConfig::gt240();
    Simulator live(cfg);
    auto live_launches = prepareWorkload(live, "vectoradd");
    KernelRun direct = test::runKernel(live, live_launches[0].prog,
                                       live_launches[0].launch,
                                       /*with_trace=*/true);

    Simulator staged(cfg);
    auto staged_launches = prepareWorkload(staged, "vectoradd");
    KernelSnapshot snap = staged.capturePerf(staged_launches[0].prog,
                                             staged_launches[0].launch,
                                             /*with_trace=*/true);
    EXPECT_FALSE(snap.samples.empty());
    KernelRun replayed = test::replayKernel(staged, snap);

    EXPECT_TRUE(test::sameText(
        test::kernelText({live_launches[0].label, true, direct}),
        test::kernelText({live_launches[0].label, true, replayed})));
}

TEST(Snapshot, TracedRowsMatchTheScalarEvaluatorOnBothChips)
{
    // Traced intervals are evaluated as the power model's own rows
    // when no engine group supplies them; the scalar reference
    // evaluator is the oracle for every interval's dynamic and DRAM
    // power.
    for (const GpuConfig &cfg : {GpuConfig::gt240(), GpuConfig::gtx580()}) {
        ASSERT_FALSE(cfg.thermal.enabled);
        Simulator sim(cfg);
        power::GpuPowerModel::Eval ev;
        std::size_t intervals = 0;
        for (const workloads::KernelLaunch &kl :
             prepareWorkload(sim, "blackscholes")) {
            KernelSnapshot snap = sim.capturePerf(
                kl.prog, kl.launch, /*with_trace=*/true, 5e-7);
            KernelRun run = test::replayKernel(sim, snap);
            ASSERT_EQ(run.trace.size(), snap.samples.size());
            for (std::size_t i = 0; i < snap.samples.size(); ++i) {
                power::PowerReference::evaluate(
                    sim.powerModel(), snap.samples[i].delta, nullptr,
                    ev);
                EXPECT_EQ(run.trace[i].dynamic_w, ev.dynamic_w)
                    << cfg.name << " " << kl.label << " @" << i;
                EXPECT_EQ(run.trace[i].dram_w, ev.dram_w)
                    << cfg.name << " " << kl.label << " @" << i;
            }
            intervals += snap.samples.size();
        }
        // Several intervals, or the comparison would barely bite.
        EXPECT_GT(intervals, 8u) << cfg.name;
    }
}

TEST(Snapshot, BatchKeysMatchPerScenarioKeys)
{
    // Every axis at once, including a clock change (the one
    // operating-point field that enters the timing fingerprint).
    SweepSpec spec;
    spec.configs = {GpuConfig::gt240(), GpuConfig::gtx580()};
    spec.tech_nodes = {40u, 28u};
    spec.operating_points = {{1.0, 1.0}, {0.9, 1.0}, {1.0, 0.8}};
    spec.coolings = {"stock", "liquid"};
    spec.workloads = {"vectoradd", "matmul"};
    std::vector<Scenario> scenarios = spec.expand();
    ASSERT_EQ(scenarios.size(), 48u);

    // Each unit's key is every member's snapshotKey(). Units come in
    // first-member order, members ascending, keys distinct, and each
    // scenario is a member of exactly one unit.
    auto unitCount = [](const std::vector<Scenario> &list) {
        const std::vector<sim::SnapshotUnit> units =
            sim::snapshotUnits(list);
        std::set<std::string> keys;
        std::vector<int> seen(list.size(), 0);
        for (std::size_t u = 0; u < units.size(); ++u) {
            const std::vector<std::size_t> &members = units[u].members;
            EXPECT_TRUE(keys.insert(units[u].key).second);
            EXPECT_FALSE(members.empty());
            EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
            if (u > 0 && !members.empty()) {
                EXPECT_GT(members.front(), units[u - 1].members.front());
            }
            for (std::size_t m : members) {
                ++seen[m];
                EXPECT_EQ(units[u].key, list[m].snapshotKey())
                    << list[m].label;
            }
        }
        EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
                  static_cast<std::ptrdiff_t>(list.size()));
        return units.size();
    };
    // 2 GPUs x 2 core clocks x 2 workloads.
    EXPECT_EQ(unitCount(scenarios), 8u);

    // Out of expansion order, equal views are no longer adjacent.
    std::reverse(scenarios.begin(), scenarios.end());
    EXPECT_EQ(unitCount(scenarios), 8u);
}

TEST(TimingFingerprint, CollapsesEveryPowerOnlyAxis)
{
    GpuConfig base = GpuConfig::gt240();
    std::string fp = sim::timingFingerprint(base);

    GpuConfig node = base;
    node.tech.node_nm = 28;
    node.tech.vdd = -1.0;
    EXPECT_EQ(fp, sim::timingFingerprint(node));

    GpuConfig vdd = base;
    vdd.tech.vdd_scale = 0.85;
    EXPECT_EQ(fp, sim::timingFingerprint(vdd));

    GpuConfig cooling = base;
    cooling.thermal.applyCooling("liquid");
    cooling.thermal.ambient_k = 300.0;
    EXPECT_EQ(fp, sim::timingFingerprint(cooling));

    GpuConfig calib = base;
    calib.calib.int_op_pj *= 2.0;
    calib.calib.global_sched_w *= 3.0;
    EXPECT_EQ(fp, sim::timingFingerprint(calib));

    GpuConfig named = base;
    named.name = "Rebadged GT240";
    named.chip = "GT215-B";
    EXPECT_EQ(fp, sim::timingFingerprint(named));

    GpuConfig dram_elec = base;
    dram_elec.dram.idd4r *= 1.5;
    dram_elec.dram.vdd = 1.35;
    EXPECT_EQ(fp, sim::timingFingerprint(dram_elec));
}

TEST(TimingFingerprint, SplitsEveryTimingAxis)
{
    GpuConfig base = GpuConfig::gt240();
    std::string fp = sim::timingFingerprint(base);

    GpuConfig freq = base;
    freq.clocks.freq_scale = 0.8;
    EXPECT_NE(fp, sim::timingFingerprint(freq));

    GpuConfig clusters = base;
    clusters.clusters = 2;
    EXPECT_NE(fp, sim::timingFingerprint(clusters));

    GpuConfig sched = base;
    sched.core.sched_policy = "gto";
    EXPECT_NE(fp, sim::timingFingerprint(sched));

    GpuConfig coal = base;
    coal.core.coalescing = false;
    EXPECT_NE(fp, sim::timingFingerprint(coal));

    GpuConfig dram_geom = base;
    dram_geom.dram.channels = 2;
    EXPECT_NE(fp, sim::timingFingerprint(dram_geom));

    // The two presets are architecturally different.
    EXPECT_NE(fp, sim::timingFingerprint(GpuConfig::gtx580()));
}

TEST(SnapshotKey, SplitsWorkloadScaleAndVerify)
{
    Scenario a;
    a.config = GpuConfig::gt240();
    a.workload = "vectoradd";

    Scenario b = a;
    b.workload = "matmul";
    EXPECT_NE(a.snapshotKey(), b.snapshotKey());

    Scenario c = a;
    c.scale = 2;
    EXPECT_NE(a.snapshotKey(), c.snapshotKey());

    Scenario d = a;
    d.verify = false;
    EXPECT_NE(a.snapshotKey(), d.snapshotKey());

    // Node retargets share the key: the whole point of the cache.
    Scenario e = a;
    e.config.tech.node_nm = 28;
    e.config.tech.vdd = -1.0;
    EXPECT_EQ(a.snapshotKey(), e.snapshotKey());
}

TEST(Scenario, ReplayableExactlyWithoutGovernor)
{
    Scenario s;
    s.config = GpuConfig::gt240();
    EXPECT_TRUE(s.replayable());

    s.config.thermal.enabled = true;
    EXPECT_TRUE(s.replayable()); // ungoverned thermal replays fine

    s.config.thermal.throttle = true;
    EXPECT_FALSE(s.replayable());

    s.config.thermal.enabled = false;
    EXPECT_TRUE(s.replayable()); // throttle flag inert without thermal
}

TEST(Snapshot, ReplayKernelRejectsGovernedConfig)
{
    // ReplayGroup::replay refuses a throttle-governed Simulator, alone
    // or beside a replayable one; only govern() measures it.
    GpuConfig cfg = GpuConfig::gt240();
    cfg.thermal.applyCooling("stock");
    Simulator replayable(cfg);
    cfg.thermal.throttle = true;
    Simulator governed(cfg);
    KernelSnapshot snap;
    EXPECT_THROW(
        ReplayGroup({&governed}).replay(snap, sim::RowDetail::kernels),
        FatalError);
    EXPECT_THROW(ReplayGroup({&replayable, &governed})
                     .replay(snap, sim::RowDetail::summary),
                 FatalError);
}
