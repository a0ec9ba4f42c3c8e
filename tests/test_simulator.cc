/**
 * @file
 * Top-level Simulator facade tests and end-to-end validation-flow
 * integration (simulate -> trace -> testbed -> error bands).
 */

#include <cmath>

#include <gtest/gtest.h>

#include "kernel_loop.hh"
#include "measure/validation.hh"
#include "obs/metrics.hh"
#include "sim/simulator.hh"
#include "workloads/microbench.hh"
#include "workloads/workload.hh"

using namespace gpusimpow;

TEST(SimulatorFacade, RunsAndReports)
{
    Simulator sim(GpuConfig::gt240());
    auto wl = workloads::makeWorkload("vectoradd");
    auto seq = wl->prepare(sim.gpu());
    KernelRun run = test::runKernel(sim, seq[0].prog, seq[0].launch);
    EXPECT_GT(run.perf.cycles, 0u);
    EXPECT_GT(run.perf.instructions, 0u);
    EXPECT_NEAR(run.report.staticPower(), 17.9, 0.3);
    EXPECT_GT(run.report.dynamicPower(), 1.0);
    EXPECT_GT(run.report.dram_w, 0.1);
    EXPECT_TRUE(run.trace.empty());
    EXPECT_TRUE(wl->verify(sim.gpu()));
}

TEST(SimulatorFacade, CaptureFeedsTimingCoreCounters)
{
    // capturePerf() adds each kernel's step/skip telemetry to the
    // perf/* registry counters once.
    obs::Registry &reg = obs::Registry::instance();
    Simulator::registerPerfCounters();
    obs::MetricsSnapshot before = reg.snapshot();
    Simulator sim(GpuConfig::gtx580());
    auto wl = workloads::makeWorkload("bfs");
    auto seq = wl->prepare(sim.gpu());
    KernelSnapshot snap = sim.capturePerf(seq[0].prog, seq[0].launch);
    obs::MetricsSnapshot delta = reg.snapshot().deltaFrom(before);
    EXPECT_GT(snap.perf.core_steps, 0u);
    EXPECT_GT(snap.perf.quiet_core_cycles, 0u);
    EXPECT_EQ(delta.counter("perf/core_steps"), snap.perf.core_steps);
    // Some core steps at each chip step, and quiet stretches between
    // them are jumped.
    EXPECT_GT(snap.perf.chip_steps, 0u);
    EXPECT_LE(snap.perf.chip_steps, snap.perf.core_steps);
    EXPECT_LT(snap.perf.chip_steps, snap.perf.cycles);
    EXPECT_EQ(delta.counter("perf/chip_steps"), snap.perf.chip_steps);
    EXPECT_EQ(delta.counter("perf/quiet_core_cycles"),
              snap.perf.quiet_core_cycles);
    EXPECT_GT(snap.perf.instructions, 0u);
    EXPECT_EQ(delta.counter("perf/warp_insts"), snap.perf.instructions);
}

TEST(SimulatorFacade, TraceCoversKernelDuration)
{
    Simulator sim(GpuConfig::gt240());
    uint32_t sink = sim.gpu().allocator().alloc(1 << 20);
    perf::KernelProgram prog =
        workloads::makeOccupancyKernel(500, sink);
    perf::LaunchConfig lc;
    lc.grid = {12, 1};
    lc.block = {256, 1};
    KernelRun run = test::runKernel(sim, prog, lc, true, 10e-6);
    ASSERT_FALSE(run.trace.empty());
    EXPECT_NEAR(run.trace.front().t0, 0.0, 1e-9);
    EXPECT_NEAR(run.trace.back().t1, run.perf.time_s, 11e-6);
    for (const PowerSample &s : run.trace) {
        EXPECT_GT(s.total(), run.report.staticPower());
        EXPECT_NEAR(s.static_w, run.report.staticPower(), 1e-6);
    }
}

TEST(SimulatorFacade, MemcpyRoundTrip)
{
    Simulator sim(GpuConfig::gt240());
    std::vector<uint32_t> data(1000);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint32_t>(i * 17);
    uint32_t addr = sim.gpu().allocator().alloc(4000);
    sim.gpu().memcpyToDevice(addr, data.data(), 4000);
    std::vector<uint32_t> back(1000);
    sim.gpu().memcpyToHost(back.data(), addr, 4000);
    EXPECT_EQ(back, data);
}

TEST(EndToEnd, ValidationErrorWithinBand)
{
    // The full Fig. 6 path for one kernel: the simulator's estimate
    // must land within a plausible band of the virtual hardware.
    GpuConfig cfg = GpuConfig::gt240();
    Simulator sim(cfg);
    measure::ValidationHarness harness(
        cfg, sim.powerModel().staticPower(), 0x5EED);
    auto wl = workloads::makeWorkload("vectoradd");
    auto seq = wl->prepare(sim.gpu());
    KernelRun run =
        test::runKernel(sim, seq[0].prog, seq[0].launch, true, 20e-6);
    auto v = harness.validate(seq[0].label, run, true);
    EXPECT_GT(v.measTotal(), 15.0);
    EXPECT_LT(std::fabs(v.relError()), 0.35);
    EXPECT_GT(v.repeats, 1u);   // short kernel gets repeated
}

TEST(EndToEnd, XmlConfiguredGpuRuns)
{
    // The paper's XML interface end to end: serialize a preset,
    // tweak it, load it back, and simulate.
    GpuConfig base = GpuConfig::gt240();
    std::string xml = base.toXml();
    GpuConfig cfg = GpuConfig::fromXml(xml);
    cfg.clusters = 2;
    Simulator sim(cfg);
    auto wl = workloads::makeWorkload("vectoradd");
    auto seq = wl->prepare(sim.gpu());
    KernelRun run = test::runKernel(sim, seq[0].prog, seq[0].launch);
    EXPECT_TRUE(wl->verify(sim.gpu()));
    EXPECT_GT(run.perf.cycles, 0u);
}

TEST(EndToEnd, EnergyPerOpMethodologyRecoversConstants)
{
    // Condensed SectionIII-D check at the model level (no testbed):
    // the differential 31-vs-1 lane methodology applied directly to
    // the simulator's reports recovers the configured 40 pJ/op.
    GpuConfig cfg = GpuConfig::gt240();
    Simulator sim(cfg);
    uint32_t sink = sim.gpu().allocator().alloc(1 << 20);
    perf::LaunchConfig lc;
    lc.grid = {cfg.numCores(), 1};
    lc.block = {512, 1};
    const unsigned iters = 300;

    auto run31 = test::runKernel(
        sim, workloads::makeIntMicrobench(iters, 31, sink), lc);
    auto run1 = test::runKernel(
        sim, workloads::makeIntMicrobench(iters, 1, sink), lc);
    // Identical timing by construction.
    EXPECT_NEAR(static_cast<double>(run31.perf.cycles),
                static_cast<double>(run1.perf.cycles),
                0.01 * run31.perf.cycles);
    double de = (run31.report.dynamicPower() -
                 run1.report.dynamicPower()) * run31.perf.time_s;
    double warp_insts = static_cast<double>(iters) *
                        workloads::int_body_ops_per_iter * (512 / 32) *
                        cfg.numCores();
    double pj = de / (warp_insts * 30.0) * 1e12;
    EXPECT_NEAR(pj, 40.0, 4.0);
}
