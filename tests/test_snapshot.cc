/**
 * @file
 * Tests of the two-phase simulation flow: activity-snapshot capture
 * and replay must be bit-identical to full simulation across every
 * power-only axis (process node, supply scale, cooling), snapshots
 * must survive serialization, the cache key must collapse exactly the
 * timing-invariant axes and split everything else, and the engine's
 * memoized sweeps must match the --no-memo path bit for bit —
 * including the throttling-governor fallback.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "power/compiled.hh"
#include "sim/engine.hh"
#include "sim/simulator.hh"
#include "sim/snapshot.hh"
#include "sim/sweep.hh"
#include "workloads/workload.hh"

using namespace gpusimpow;
using sim::EngineOptions;
using sim::Scenario;
using sim::ScenarioResult;
using sim::SimulationEngine;
using sim::SweepResult;
using sim::SweepSpec;

namespace {

/** Per-kernel launches of a workload against a given simulator. */
std::vector<workloads::KernelLaunch>
prepareWorkload(Simulator &sim, const std::string &name)
{
    auto wl = workloads::makeWorkload(name, 1);
    return wl->prepare(sim.gpu());
}

/** Exact equality of two kernel runs, power traces included. */
void
expectRunsEqual(const KernelRun &a, const KernelRun &b,
                const std::string &what)
{
    EXPECT_EQ(a.perf.cycles, b.perf.cycles) << what;
    EXPECT_EQ(a.perf.time_s, b.perf.time_s) << what;
    EXPECT_EQ(a.perf.instructions, b.perf.instructions) << what;
    EXPECT_EQ(a.report.totalPower(), b.report.totalPower()) << what;
    EXPECT_EQ(a.report.dynamicPower(), b.report.dynamicPower()) << what;
    EXPECT_EQ(a.report.staticPower(), b.report.staticPower()) << what;
    EXPECT_EQ(a.report.dram_w, b.report.dram_w) << what;
    EXPECT_EQ(a.report.elapsed_s, b.report.elapsed_s) << what;
    ASSERT_EQ(a.trace.size(), b.trace.size()) << what;
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
        EXPECT_EQ(a.trace[i].t0, b.trace[i].t0) << what << " @" << i;
        EXPECT_EQ(a.trace[i].t1, b.trace[i].t1) << what << " @" << i;
        EXPECT_EQ(a.trace[i].dynamic_w, b.trace[i].dynamic_w)
            << what << " @" << i;
        EXPECT_EQ(a.trace[i].static_w, b.trace[i].static_w)
            << what << " @" << i;
        EXPECT_EQ(a.trace[i].dram_w, b.trace[i].dram_w)
            << what << " @" << i;
    }
    EXPECT_EQ(a.thermal.enabled, b.thermal.enabled) << what;
    EXPECT_EQ(a.thermal.converged, b.thermal.converged) << what;
    EXPECT_EQ(a.thermal.throttled, b.thermal.throttled) << what;
    EXPECT_EQ(a.thermal.t_max_k, b.thermal.t_max_k) << what;
    EXPECT_EQ(a.thermal.heatsink_k, b.thermal.heatsink_k) << what;
    EXPECT_EQ(a.thermal.block_temps_k, b.thermal.block_temps_k) << what;
    ASSERT_EQ(a.thermal.trace.size(), b.thermal.trace.size()) << what;
    for (std::size_t i = 0; i < a.thermal.trace.size(); ++i) {
        EXPECT_EQ(a.thermal.trace[i].temps_k, b.thermal.trace[i].temps_k)
            << what << " @" << i;
    }
}

/** Exact equality of two scenario rows, kernel by kernel. */
void
expectScenariosEqual(const ScenarioResult &a, const ScenarioResult &b)
{
    const std::string &what = a.scenario.label;
    EXPECT_EQ(a.scenario.label, b.scenario.label);
    EXPECT_EQ(a.time_s, b.time_s) << what;
    EXPECT_EQ(a.energy_j, b.energy_j) << what;
    EXPECT_EQ(a.avg_power_w, b.avg_power_w) << what;
    EXPECT_EQ(a.static_w, b.static_w) << what;
    EXPECT_EQ(a.area_mm2, b.area_mm2) << what;
    EXPECT_EQ(a.vdd, b.vdd) << what;
    EXPECT_EQ(a.shader_hz, b.shader_hz) << what;
    EXPECT_EQ(a.verified, b.verified) << what;
    EXPECT_EQ(a.thermal, b.thermal) << what;
    EXPECT_EQ(a.t_max_k, b.t_max_k) << what;
    EXPECT_EQ(a.throttled, b.throttled) << what;
    EXPECT_EQ(a.thermal_converged, b.thermal_converged) << what;
    EXPECT_EQ(a.min_freq_scale, b.min_freq_scale) << what;
    ASSERT_EQ(a.kernels.size(), b.kernels.size()) << what;
    for (std::size_t k = 0; k < a.kernels.size(); ++k) {
        EXPECT_EQ(a.kernels[k].label, b.kernels[k].label) << what;
        EXPECT_EQ(a.kernels[k].repeatable, b.kernels[k].repeatable)
            << what;
        expectRunsEqual(a.kernels[k].run, b.kernels[k].run,
                        what + "/" + a.kernels[k].label);
    }
}

/** The memoization showcase sweep: all swept axes are power-only. */
SweepSpec
powerAxesSweep()
{
    SweepSpec spec;
    spec.configs = {GpuConfig::gt240()};
    spec.tech_nodes = {40u, 28u};
    spec.operating_points = OperatingPoint::parseList("0.9:1,1:1");
    spec.coolings = {"stock", "liquid"};
    spec.workloads = {"vectoradd", "matmul"};
    return spec;
}

SweepResult
runSweep(const SweepSpec &spec, unsigned jobs, bool memoize,
         bool with_trace = false)
{
    EngineOptions opt;
    opt.jobs = jobs;
    opt.memoize = memoize;
    opt.with_trace = with_trace;
    return SimulationEngine(opt).run(spec);
}

void
expectSweepsEqual(const SweepResult &a, const SweepResult &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expectScenariosEqual(a.at(i), b.at(i));
}

} // namespace

TEST(ActivitySerialization, RoundTripsBitExactly)
{
    Simulator sim(GpuConfig::gt240());
    auto launches = prepareWorkload(sim, "vectoradd");
    ASSERT_FALSE(launches.empty());
    KernelSnapshot snap = sim.capturePerf(launches[0].prog,
                                          launches[0].launch);

    std::ostringstream out;
    snap.perf.activity.serialize(out);
    std::istringstream in(out.str());
    perf::ChipActivity parsed = perf::ChipActivity::parse(in);

    EXPECT_EQ(parsed.elapsed_s, snap.perf.activity.elapsed_s);
    EXPECT_EQ(parsed.shader_cycles, snap.perf.activity.shader_cycles);
    EXPECT_EQ(parsed.gpu_busy_cycles,
              snap.perf.activity.gpu_busy_cycles);
    EXPECT_EQ(parsed.cluster_busy_cycles,
              snap.perf.activity.cluster_busy_cycles);
    ASSERT_EQ(parsed.cores.size(), snap.perf.activity.cores.size());
    // Spot-check through format(), which renders every counter.
    EXPECT_EQ(parsed.format(), snap.perf.activity.format());
}

TEST(ActivitySerialization, RejectsSchemaMismatch)
{
    std::istringstream in("chip-activity 0 0 3 2\nmem 0 0\n");
    EXPECT_THROW(perf::ChipActivity::parse(in), FatalError);
}

TEST(Snapshot, CaptureReplayMatchesRunKernelWithTrace)
{
    GpuConfig cfg = GpuConfig::gt240();
    Simulator live(cfg);
    auto live_launches = prepareWorkload(live, "vectoradd");
    KernelRun direct = live.runKernel(live_launches[0].prog,
                                      live_launches[0].launch,
                                      /*with_trace=*/true);

    Simulator staged(cfg);
    auto staged_launches = prepareWorkload(staged, "vectoradd");
    KernelSnapshot snap = staged.capturePerf(staged_launches[0].prog,
                                             staged_launches[0].launch,
                                             /*with_trace=*/true);
    EXPECT_FALSE(snap.samples.empty());
    KernelRun replayed = staged.replayKernel(snap);

    expectRunsEqual(direct, replayed, "vectoradd");
}

TEST(Snapshot, TracedRowsMatchTheScalarEvaluatorOnBothChips)
{
    // Traced intervals are evaluated as width-1 batched rows when no
    // engine group supplies them; the scalar compiled evaluator is
    // the oracle for every interval's dynamic and DRAM power.
    for (const GpuConfig &cfg : {GpuConfig::gt240(), GpuConfig::gtx580()}) {
        ASSERT_FALSE(cfg.thermal.enabled);
        Simulator sim(cfg);
        const power::CompiledPowerModel &cpm =
            sim.powerModel().compiled();
        power::CompiledPowerModel::Eval ev;
        std::size_t intervals = 0;
        for (const workloads::KernelLaunch &kl :
             prepareWorkload(sim, "blackscholes")) {
            KernelSnapshot snap = sim.capturePerf(
                kl.prog, kl.launch, /*with_trace=*/true, 5e-7);
            KernelRun run = sim.replayKernel(snap);
            ASSERT_EQ(run.trace.size(), snap.samples.size());
            for (std::size_t i = 0; i < snap.samples.size(); ++i) {
                cpm.evaluate(snap.samples[i].delta, ev);
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

TEST(Snapshot, ReplayAcrossNodeAndVddMatchesFullSimulation)
{
    // Capture timing once on the nominal GT240...
    GpuConfig base = GpuConfig::gt240();
    Simulator capture_sim(base);
    auto launches = prepareWorkload(capture_sim, "matmul");
    std::vector<KernelSnapshot> snaps;
    for (const auto &kl : launches) {
        KernelSnapshot s = capture_sim.capturePerf(kl.prog, kl.launch,
                                                   true);
        s.label = kl.label;
        snaps.push_back(std::move(s));
    }

    // ...then retarget to 28 nm at 0.9x supply: power-only changes.
    GpuConfig variant = base;
    variant.tech.node_nm = 28;
    variant.tech.vdd = -1.0; // node-nominal supply
    variant.tech.vdd_scale = 0.9;
    ASSERT_EQ(sim::timingFingerprint(base),
              sim::timingFingerprint(variant));

    Simulator full(variant);
    auto full_launches = prepareWorkload(full, "matmul");
    Simulator replay(variant); // untouched GPU: replay needs no prepare
    ASSERT_EQ(full_launches.size(), snaps.size());
    for (std::size_t i = 0; i < snaps.size(); ++i) {
        KernelRun truth = full.runKernel(full_launches[i].prog,
                                         full_launches[i].launch, true);
        KernelRun replayed = replay.replayKernel(snaps[i]);
        expectRunsEqual(truth, replayed, snaps[i].label);
    }
}

TEST(Snapshot, ReplayAcrossCoolingMatchesFullSimulation)
{
    GpuConfig base = GpuConfig::gt240();
    Simulator capture_sim(base);
    auto launches = prepareWorkload(capture_sim, "matmul");
    std::vector<KernelSnapshot> snaps;
    for (const auto &kl : launches)
        snaps.push_back(capture_sim.capturePerf(kl.prog, kl.launch,
                                                true));

    for (const char *cooling : {"stock", "liquid"}) {
        GpuConfig variant = base;
        variant.thermal.applyCooling(cooling);
        ASSERT_EQ(sim::timingFingerprint(base),
                  sim::timingFingerprint(variant));

        Simulator full(variant);
        auto full_launches = prepareWorkload(full, "matmul");
        Simulator replay(variant);
        for (std::size_t i = 0; i < snaps.size(); ++i) {
            KernelRun truth = full.runKernel(full_launches[i].prog,
                                             full_launches[i].launch,
                                             true);
            KernelRun replayed = replay.replayKernel(snaps[i]);
            ASSERT_TRUE(replayed.thermal.enabled);
            EXPECT_FALSE(replayed.thermal.trace.empty());
            expectRunsEqual(truth, replayed, cooling);
        }
    }
}

TEST(Snapshot, SerializationRoundTripReplaysIdentically)
{
    Scenario scenario;
    scenario.config = GpuConfig::gt240();
    scenario.workload = "vectoradd";

    EngineOptions opt;
    opt.with_trace = true;
    SimulationEngine engine(opt);
    Simulator sim(scenario.config);
    ActivitySnapshot captured;
    ScenarioResult direct = engine.runScenario(scenario, sim,
                                               &captured);
    ASSERT_FALSE(captured.kernels.empty());

    std::string text = captured.serialize();
    ActivitySnapshot parsed = ActivitySnapshot::parse(text);
    EXPECT_EQ(parsed.workload, captured.workload);
    EXPECT_EQ(parsed.scale, captured.scale);
    EXPECT_EQ(parsed.with_trace, captured.with_trace);
    EXPECT_EQ(parsed.sample_interval_s, captured.sample_interval_s);
    EXPECT_EQ(parsed.verified, captured.verified);
    ASSERT_EQ(parsed.kernels.size(), captured.kernels.size());
    EXPECT_EQ(parsed.kernels[0].label, captured.kernels[0].label);
    EXPECT_EQ(parsed.kernels[0].samples.size(),
              captured.kernels[0].samples.size());

    Simulator replay_sim(scenario.config);
    ScenarioResult replayed = engine.replayScenario(scenario, parsed,
                                                    replay_sim);
    expectScenariosEqual(direct, replayed);
}

TEST(Snapshot, SerializationRejectsGarbage)
{
    EXPECT_THROW(ActivitySnapshot::parse("not a snapshot"),
                 FatalError);
    EXPECT_THROW(ActivitySnapshot::parse(
                     "gpusimpow-activity-snapshot v99\n"),
                 FatalError);
    // Negative counts must not wrap through strtoull into 2^64-1...
    EXPECT_THROW(ActivitySnapshot::parse(
                     "gpusimpow-activity-snapshot v1\n"
                     "workload vectoradd\nscale -1\n"),
                 FatalError);
    // ...and absurd counts must hit the malformed-record fatal(),
    // not an uncaught length_error out of reserve().
    EXPECT_THROW(ActivitySnapshot::parse(
                     "gpusimpow-activity-snapshot v1\n"
                     "workload vectoradd\nscale 1\nwith_trace 0\n"
                     "sample_interval_s 0x0p+0\nverified 1\n"
                     "kernels 9999999999999999\n"),
                 FatalError);
}

namespace {

/** Minimal kernel-less snapshot text with substitutable header
 *  fields, for targeted malformed-input probes. */
std::string
snapshotHeader(const std::string &scale, const std::string &with_trace,
               const std::string &interval)
{
    return "gpusimpow-activity-snapshot v1\n"
           "workload vectoradd\n"
           "scale " + scale + "\n"
           "with_trace " + with_trace + "\n"
           "sample_interval_s " + interval + "\n"
           "verified 0\nkernels 0\n";
}

} // namespace

TEST(Snapshot, ParserRejectsOutOfRangeScale)
{
    // The 32-bit boundary itself is a legal scale...
    EXPECT_EQ(ActivitySnapshot::parse(
                  snapshotHeader("4294967295", "0", "0x0p+0")).scale,
              4294967295u);
    // ...but one past it used to truncate silently to 0 through
    // static_cast<unsigned>; it must be a parse error instead.
    EXPECT_THROW(ActivitySnapshot::parse(
                     snapshotHeader("4294967296", "0", "0x0p+0")),
                 FatalError);
    EXPECT_THROW(ActivitySnapshot::parse(
                     snapshotHeader("18446744073709551615", "0",
                                    "0x0p+0")),
                 FatalError);
}

TEST(Snapshot, ParserRejectsNonBooleanFlags)
{
    EXPECT_THROW(ActivitySnapshot::parse(
                     snapshotHeader("1", "2", "0x0p+0")),
                 FatalError);
}

TEST(Snapshot, ParserRejectsInvalidSampleInterval)
{
    EXPECT_THROW(ActivitySnapshot::parse(
                     snapshotHeader("1", "0", "-0x1p-10")),
                 FatalError);
    EXPECT_THROW(ActivitySnapshot::parse(
                     snapshotHeader("1", "0", "nan")),
                 FatalError);
    EXPECT_THROW(ActivitySnapshot::parse(
                     snapshotHeader("1", "0", "inf")),
                 FatalError);
    // A traced snapshot sampled at 0 is self-contradictory; the
    // same interval on an untraced snapshot is the legal default.
    EXPECT_THROW(ActivitySnapshot::parse(
                     snapshotHeader("1", "1", "0x0p+0")),
                 FatalError);
    EXPECT_NO_THROW(ActivitySnapshot::parse(
        snapshotHeader("1", "0", "0x0p+0")));
}

TEST(Snapshot, ParseErrorsReportTextPosition)
{
    // A bad token deep in the text must be located for the reader: a
    // corrupt store entry or hand-edited snapshot is only diagnosable
    // if the error names where the parse stopped.
    try {
        ActivitySnapshot::parse(snapshotHeader("1", "2", "0x0p+0"));
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        // The bad with_trace flag sits on line 4 of the header.
        EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
        EXPECT_NE(msg.find("column "), std::string::npos) << msg;
        EXPECT_NE(msg.find("byte offset "), std::string::npos) << msg;
    }

    // Truncated input: the position points at the end of the text.
    const std::string truncated =
        "gpusimpow-activity-snapshot v1\nworkload vectoradd\n";
    try {
        ActivitySnapshot::parse(truncated);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("line "), std::string::npos) << msg;
        EXPECT_NE(msg.find(strformat("byte offset %zu",
                                     truncated.size())),
                  std::string::npos)
            << msg;
    }
}

TEST(Snapshot, ParserRejectsInvalidSamplesAndTimes)
{
    // Corrupt individual lines of a genuine traced snapshot, so
    // everything around the probed field stays structurally valid.
    Scenario scenario;
    scenario.config = GpuConfig::gt240();
    scenario.workload = "vectoradd";
    EngineOptions opt;
    opt.with_trace = true;
    SimulationEngine engine(opt);
    Simulator sim(scenario.config);
    ActivitySnapshot captured;
    engine.runScenario(scenario, sim, &captured);
    ASSERT_FALSE(captured.kernels.empty());
    ASSERT_FALSE(captured.kernels[0].samples.empty());
    const std::string text = captured.serialize();
    ASSERT_NO_THROW(ActivitySnapshot::parse(text)); // control

    auto corrupt_line = [&](const char *marker,
                            const std::string &replacement) {
        std::size_t pos = text.find(marker);
        EXPECT_NE(pos, std::string::npos) << marker;
        std::size_t eol = text.find('\n', pos + 1);
        std::string t = text;
        t.replace(pos + 1, eol - pos - 1, replacement);
        return t;
    };
    // A sample interval running backwards (t1 < t0).
    EXPECT_THROW(ActivitySnapshot::parse(corrupt_line(
                     "\nsample ", "sample 0x1p+0 0x1p-1")),
                 FatalError);
    // Non-finite and negative sample bounds.
    EXPECT_THROW(ActivitySnapshot::parse(corrupt_line(
                     "\nsample ", "sample nan 0x1p-1")),
                 FatalError);
    EXPECT_THROW(ActivitySnapshot::parse(corrupt_line(
                     "\nsample ", "sample -0x1p-1 0x1p+0")),
                 FatalError);
    // Negative kernel time_s.
    EXPECT_THROW(ActivitySnapshot::parse(corrupt_line(
                     "\nperf ", "perf 1 1 -0x1p+0")),
                 FatalError);
    // Non-boolean kernel flags.
    EXPECT_THROW(ActivitySnapshot::parse(corrupt_line(
                     "\nflags ", "flags 2 0")),
                 FatalError);
    // Non-finite activity elapsed_s.
    EXPECT_THROW(ActivitySnapshot::parse(corrupt_line(
                     "\ntotals ", "totals 1 1 1 inf")),
                 FatalError);
}

TEST(ActivitySerialization, RejectsImplausibleCounts)
{
    std::istringstream in("chip-activity 9999999999999999 0 46 10\n");
    EXPECT_THROW(perf::ChipActivity::parse(in), FatalError);
    std::istringstream neg("chip-activity -4 0 46 10\n");
    EXPECT_THROW(perf::ChipActivity::parse(neg), FatalError);
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
    GpuConfig cfg = GpuConfig::gt240();
    cfg.thermal.applyCooling("stock");
    cfg.thermal.throttle = true;
    Simulator sim(cfg);
    KernelSnapshot snap;
    EXPECT_THROW(sim.replayKernel(snap), FatalError);
}

TEST(Engine, MemoizedSweepBitIdenticalToFullSimulation)
{
    SweepSpec spec = powerAxesSweep();
    SweepResult memo = runSweep(spec, 1, true);
    SweepResult full = runSweep(spec, 1, false);
    // 16 scenarios, 2 timing-unique workloads: one serial worker
    // must replay every other scenario.
    EXPECT_EQ(memo.replayedScenarios(), spec.size() - 2);
    EXPECT_EQ(full.replayedScenarios(), 0u);
    expectSweepsEqual(memo, full);
}

TEST(Engine, MemoizedSweepBitIdenticalAcrossWorkerCounts)
{
    SweepSpec spec = powerAxesSweep();
    SweepResult serial = runSweep(spec, 1, true);
    SweepResult parallel = runSweep(spec, 4, true);
    expectSweepsEqual(serial, parallel);
}

TEST(Engine, MemoizedSweepWithTracesBitIdentical)
{
    SweepSpec spec;
    spec.configs = {GpuConfig::gt240()};
    spec.tech_nodes = {40u, 28u};
    spec.coolings = {"stock"};
    spec.workloads = {"vectoradd"};
    SweepResult memo = runSweep(spec, 1, true, /*with_trace=*/true);
    SweepResult full = runSweep(spec, 1, false, /*with_trace=*/true);
    EXPECT_EQ(memo.replayedScenarios(), 1u);
    // Traces must actually exist for the comparison to bite.
    ASSERT_FALSE(memo.at(0).kernels.empty());
    EXPECT_FALSE(memo.at(0).kernels[0].run.trace.empty());
    EXPECT_FALSE(memo.at(1).kernels[0].run.thermal.trace.empty());
    expectSweepsEqual(memo, full);
}

TEST(Engine, BatchedReplayBitIdenticalToNoMemo)
{
    // Grouped replay changes scheduling and the evaluator (one
    // capture per key, then multi-variant matrix kernels) against
    // the --no-memo oracle's per-scenario full simulation with
    // width-1 rows, but every published number must stay
    // byte-identical, at one worker and at several.
    SweepSpec spec = powerAxesSweep();
    SweepResult memo1 = runSweep(spec, 1, true, /*with_trace=*/true);
    SweepResult full1 = runSweep(spec, 1, false, /*with_trace=*/true);
    EXPECT_EQ(memo1.replayedScenarios(), spec.size() - 2);
    EXPECT_EQ(full1.replayedScenarios(), 0u);
    expectSweepsEqual(memo1, full1);

    SweepResult memo4 = runSweep(spec, 4, true, /*with_trace=*/true);
    SweepResult full4 = runSweep(spec, 4, false, /*with_trace=*/true);
    EXPECT_EQ(memo4.replayedScenarios(), spec.size() - 2);
    expectSweepsEqual(memo1, memo4);
    expectSweepsEqual(memo4, full4);
}

TEST(Engine, BatchedReplayNonThermalTracesBitIdenticalToNoMemo)
{
    // No cooling axis -> thermal disabled: exercises the batched
    // dynamic/dram trace path rather than the per-block march.
    SweepSpec spec;
    spec.configs = {GpuConfig::gt240()};
    spec.tech_nodes = {40u, 28u};
    spec.operating_points = OperatingPoint::parseList("0.9:1,1:1");
    spec.workloads = {"vectoradd"};
    for (unsigned jobs : {1u, 4u}) {
        SweepResult memo = runSweep(spec, jobs, true, /*with_trace=*/true);
        SweepResult full =
            runSweep(spec, jobs, false, /*with_trace=*/true);
        // 4 scenarios (2 nodes x 2 vdd points) share one timing key.
        EXPECT_EQ(memo.replayedScenarios(), 3u);
        ASSERT_FALSE(memo.at(0).kernels.empty());
        EXPECT_FALSE(memo.at(0).kernels[0].run.trace.empty());
        expectSweepsEqual(memo, full);
    }
}

TEST(Engine, FreqScaleScenariosNeverShareSnapshots)
{
    // freq_scale changes timing, so each operating point must get its
    // own snapshot; only the node axis within a point may replay.
    SweepSpec spec;
    spec.configs = {GpuConfig::gt240()};
    spec.tech_nodes = {40u, 28u};
    spec.operating_points = OperatingPoint::parseList("1:0.8,1:1");
    spec.workloads = {"vectoradd"};
    SweepResult memo = runSweep(spec, 1, true);
    SweepResult full = runSweep(spec, 1, false);
    // 4 scenarios, 2 distinct (freq, workload) timing keys -> exactly
    // the 2 node retargets replay.
    EXPECT_EQ(memo.replayedScenarios(), 2u);
    expectSweepsEqual(memo, full);
    // And the two operating points genuinely differ in timing
    // (expansion order is node-major, then operating point).
    EXPECT_NE(memo.at(0).time_s, memo.at(1).time_s);
}

TEST(Engine, ThrottledScenariosFallBackToFullSimulation)
{
    SweepSpec spec;
    GpuConfig cfg = GpuConfig::gtx580();
    cfg.thermal.throttle = true;
    spec.configs = {cfg};
    spec.tech_nodes = {40u, 40u}; // identical retargets: memo bait
    spec.coolings = {"constrained"};
    spec.workloads = {"matmul"};

    SweepResult memo = runSweep(spec, 1, true);
    SweepResult full = runSweep(spec, 1, false);
    // The governor's power-to-timing feedback disqualifies every
    // scenario from replay, identical keys or not.
    EXPECT_EQ(memo.replayedScenarios(), 0u);
    expectSweepsEqual(memo, full);
    EXPECT_TRUE(memo.at(0).throttled);
}
