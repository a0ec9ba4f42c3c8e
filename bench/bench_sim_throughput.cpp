/**
 * @file
 * Google-benchmark microbenchmarks of the framework itself:
 * simulation throughput (shader cycles/second), power-model
 * evaluation rate, and circuit-model construction cost. These guard
 * against performance regressions of the simulator.
 *
 * BM_CaptureStallBound is the gate on the event-driven timing core:
 * a stall-bound capture whose shader_cycles/s collapses by an order
 * of magnitude if stalled core-cycles are stepped one by one again.
 * BM_CaptureIssueBound gates the warp-mask schedulers and active-lane
 * execution on an issue-bound capture, where almost every core-cycle
 * issues and the per-step scan and per-lane work set the rate.
 * BM_CaptureNoScoreboard gates the same core on GT240, which has no
 * scoreboard: a warp that issues waits for its completion, so the
 * core's exact next-event wake decides how many cycles it visits.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "circuit/array.hh"
#include "power/chip_power.hh"
#include "sim/simulator.hh"
#include "workloads/microbench.hh"
#include "workloads/workload.hh"

using namespace gpusimpow;

namespace {

void
BM_SimulateOccupancyKernel(benchmark::State &state)
{
    Simulator sim(GpuConfig::gt240());
    uint32_t sink = sim.gpu().allocator().alloc(64 * 1024);
    perf::KernelProgram prog = workloads::makeOccupancyKernel(
        static_cast<unsigned>(state.range(0)), sink);
    perf::LaunchConfig lc;
    lc.grid = {12, 1};
    lc.block = {256, 1};
    ReplayGroup group({&sim});
    uint64_t cycles = 0;
    for (auto _ : state) {
        const KernelRun &run = group.replay(sim.capturePerf(prog, lc),
                                            sim::RowDetail::kernels)[0];
        cycles += run.perf.cycles;
        benchmark::DoNotOptimize(run.perf.cycles);
    }
    state.counters["shader_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateOccupancyKernel)->Arg(200)->Arg(1000);

/**
 * Capture every kernel of `workload` on the chip `cfg`, timing only
 * the captures: each iteration prepares the workload on a fresh
 * Simulator over one shared power model, outside the timed region.
 */
void
captureWorkload(benchmark::State &state, const GpuConfig &cfg,
                const char *workload)
{
    auto model = std::make_shared<const power::GpuPowerModel>(cfg);
    auto wl = workloads::makeWorkload(workload);
    std::unique_ptr<Simulator> sim;
    uint64_t cycles = 0;
    for (auto _ : state) {
        state.PauseTiming();
        sim = std::make_unique<Simulator>(cfg, model, nullptr);
        std::vector<workloads::KernelLaunch> kernels =
            wl->prepare(sim->gpu());
        state.ResumeTiming();
        for (const auto &k : kernels) {
            KernelSnapshot snap = sim->capturePerf(k.prog, k.launch);
            cycles += snap.perf.cycles;
            benchmark::DoNotOptimize(snap.perf.cycles);
        }
    }
    state.counters["shader_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}

void
BM_CaptureStallBound(benchmark::State &state)
{
    // GTX580 backprop through the Simulator's timing phase: nearly
    // every resident core-cycle waits on DRAM or the scoreboard.
    captureWorkload(state, GpuConfig::gtx580(), "backprop");
}
BENCHMARK(BM_CaptureStallBound)->Unit(benchmark::kMillisecond);

void
BM_CaptureIssueBound(benchmark::State &state)
{
    // GTX580 mergesort through the Simulator's timing phase: its
    // rank-fixup kernel keeps a warp issuing on most core-cycles.
    captureWorkload(state, GpuConfig::gtx580(), "mergesort");
}
BENCHMARK(BM_CaptureIssueBound)->Unit(benchmark::kMillisecond);

void
BM_CaptureNoScoreboard(benchmark::State &state)
{
    // GT240 bfs through the Simulator's timing phase, as in the cold
    // sweep's median job: warps wait out each instruction's latency,
    // so most resident core-cycles are skipped between events.
    captureWorkload(state, GpuConfig::gt240(), "bfs");
}
BENCHMARK(BM_CaptureNoScoreboard)->Unit(benchmark::kMillisecond);

void
BM_PowerModelEvaluate(benchmark::State &state)
{
    GpuConfig cfg = GpuConfig::gt240();
    power::GpuPowerModel model(cfg);
    perf::ChipActivity act;
    act.cores.resize(cfg.numCores());
    for (auto &c : act.cores) {
        c.cycles_resident = 1000000;
        c.int_lane_ops = 32000000;
        c.fp_lane_ops = 16000000;
        c.rf_bank_reads = 24000000;
    }
    act.cluster_busy_cycles.assign(cfg.clusters, 1000000);
    act.gpu_busy_cycles = 1000000;
    act.shader_cycles = 1000000;
    act.elapsed_s = 1e-3;
    for (auto _ : state) {
        power::PowerReport rep = model.evaluate(act);
        benchmark::DoNotOptimize(rep.gpu.totalDynamic());
    }
}
BENCHMARK(BM_PowerModelEvaluate);

void
BM_SramArrayModel(benchmark::State &state)
{
    tech::TechNode t = tech::TechNode::make(40, 1.05, 350.0);
    circuit::SramParams p;
    p.entries = static_cast<unsigned>(state.range(0));
    p.bits_per_entry = 128;
    for (auto _ : state) {
        circuit::SramArray array(p, t);
        benchmark::DoNotOptimize(array.readEnergy());
    }
}
BENCHMARK(BM_SramArrayModel)->Arg(256)->Arg(4096);

} // namespace

BENCHMARK_MAIN();
