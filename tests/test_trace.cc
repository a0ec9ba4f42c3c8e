/**
 * @file
 * Power-trace integrity tests: the sampled waveform must cover the
 * whole kernel exactly — first sample starts at t=0, samples are
 * contiguous and strictly positive in length, the final partial
 * interval is emitted, no zero-length sample appears when the kernel
 * ends exactly on a sampling boundary — and integrating the trace
 * over time must reproduce the whole-kernel report's energy.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "kernel_loop.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

using namespace gpusimpow;

namespace {

/** Run one workload's first kernel with tracing at the given period. */
KernelRun
tracedRun(const GpuConfig &cfg, const std::string &workload,
          double sample_interval_s)
{
    Simulator sim(cfg);
    auto wl = workloads::makeWorkload(workload, 1);
    auto launches = wl->prepare(sim.gpu());
    EXPECT_FALSE(launches.empty());
    const auto &kl = launches.front();
    return test::runKernel(sim, kl.prog, kl.launch, true,
                           sample_interval_s);
}

/** Structural invariants every trace must satisfy. */
void
expectFullCoverage(const KernelRun &run)
{
    ASSERT_FALSE(run.trace.empty());
    EXPECT_DOUBLE_EQ(run.trace.front().t0, 0.0);
    for (std::size_t i = 0; i < run.trace.size(); ++i) {
        const PowerSample &s = run.trace[i];
        EXPECT_LT(s.t0, s.t1) << "zero-length sample " << i;
        if (i > 0) {
            EXPECT_DOUBLE_EQ(run.trace[i - 1].t1, s.t0)
                << "gap/overlap before sample " << i;
        }
    }
    EXPECT_DOUBLE_EQ(run.trace.back().t1, run.perf.time_s)
        << "trace does not reach the end of the kernel";
}

/** Integrate total card power over the waveform, J. */
double
traceEnergy(const KernelRun &run)
{
    double e = 0.0;
    for (const PowerSample &s : run.trace)
        e += s.total() * (s.t1 - s.t0);
    return e;
}

} // namespace

TEST(Trace, CoversWholeKernelWithFinalPartialInterval)
{
    // 2 us against a tens-of-us kernel: many full intervals plus
    // (almost surely) a partial tail.
    KernelRun run = tracedRun(GpuConfig::gt240(), "matmul", 2e-6);
    EXPECT_GT(run.trace.size(), 3u);
    expectFullCoverage(run);
}

TEST(Trace, SingleSampleWhenKernelShorterThanInterval)
{
    KernelRun run = tracedRun(GpuConfig::gt240(), "vectoradd", 1.0);
    EXPECT_EQ(run.trace.size(), 1u);
    expectFullCoverage(run);
}

TEST(Trace, NoZeroLengthSampleOnExactBoundary)
{
    // Learn the kernel length, then sample with exactly that period:
    // the in-loop sample fires on the final cycle and the tail flush
    // must not emit a second, zero-length sample.
    GpuConfig cfg = GpuConfig::gt240();
    KernelRun probe = tracedRun(cfg, "vectoradd", 1.0);
    uint64_t cycles = probe.perf.cycles;
    ASSERT_GT(cycles, 0u);
    double interval =
        (static_cast<double>(cycles) + 0.5) / cfg.clocks.shaderHz();

    KernelRun run = tracedRun(cfg, "vectoradd", interval);
    EXPECT_EQ(run.trace.size(), 1u);
    expectFullCoverage(run);
}

TEST(Trace, IntegralMatchesWholeKernelEnergy)
{
    for (const char *wl : {"vectoradd", "matmul"}) {
        KernelRun run = tracedRun(GpuConfig::gt240(), wl, 2e-6);
        expectFullCoverage(run);
        double whole =
            (run.report.totalPower() + run.report.dram_w) *
            run.perf.time_s;
        double integrated = traceEnergy(run);
        EXPECT_NEAR(integrated, whole, 0.005 * whole)
            << wl << ": trace integral drifted from the whole-kernel "
            << "energy";
    }
}

TEST(Trace, IntegralMatchesOnFermiConfigWithL2)
{
    KernelRun run = tracedRun(GpuConfig::gtx580(), "blackscholes",
                              2e-6);
    expectFullCoverage(run);
    double whole = (run.report.totalPower() + run.report.dram_w) *
                   run.perf.time_s;
    EXPECT_NEAR(traceEnergy(run), whole, 0.005 * whole);
}
