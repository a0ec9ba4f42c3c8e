/**
 * @file
 * Per-interval power-evaluation throughput of the one power evaluator
 * (power/batched.hh) at the two widths production runs it: one
 * variant — a Simulator's own power model over a traced kernel's
 * intervals, with the per-block rows the thermal march reads — and a
 * 16-variant stack, an engine replay group's pass over the same
 * intervals. The workload is a traced thermal run (GTX580,
 * blackscholes, stock cooling): its sampled activity deltas are
 * exactly what the transient thermal loop evaluates per interval.
 *
 * The evaluator's equivalence to the scalar reference evaluator is
 * checked by the test suite (test_batched_power,
 * test_compiled_power), not here.
 *
 * With --benchmark_format=json the measurements are emitted to
 * stdout as Google-Benchmark-style JSON (human output moves to
 * stderr) for the CI regression gate; see
 * bench/check_bench_regression.py and bench/baseline.json (the
 * power_eval metrics).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "perf/activity.hh"
#include "power/batched.hh"
#include "power/chip_power.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

using namespace gpusimpow;
using power::BatchedPowerEvaluator;
using power::GpuPowerModel;

namespace {

/** Trace sampling period: fine-grained, the regime the motivation
 *  papers call out as dominated by per-sample model cost. */
constexpr double sample_interval_s = 0.5e-6;
/** Minimum measured wall time per path, s. */
constexpr double min_measure_s = 0.4;

/** Repeat pass (after one warm-up call) until min_measure_s elapses;
 *  returns intervals per second, each pass covering `per_pass`. */
template <typename Fn>
double
measureRate(std::size_t per_pass, Fn &&pass)
{
    pass();
    auto t0 = std::chrono::steady_clock::now();
    std::size_t evaluated = 0;
    double elapsed = 0.0;
    do {
        pass();
        evaluated += per_pass;
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    } while (elapsed < min_measure_s);
    return static_cast<double>(evaluated) / elapsed;
}

int
runBench(FILE *out, bool json)
{
    // Traced thermal scenario: GTX580 running blackscholes (scale 8,
    // ~100 sampling intervals) under the stock cooler.
    GpuConfig cfg = GpuConfig::gtx580();
    cfg.thermal.applyCooling("stock");
    Simulator sim(cfg);
    auto workload = workloads::makeWorkload("blackscholes", 8);
    auto launches = workload->prepare(sim.gpu());
    GSP_ASSERT(!launches.empty(), "workload produced no kernels");

    std::vector<ActivitySample> samples;
    for (const workloads::KernelLaunch &kl : launches) {
        KernelSnapshot snap = sim.capturePerf(
            kl.prog, kl.launch, true, sample_interval_s);
        samples.insert(samples.end(), snap.samples.begin(),
                       snap.samples.end());
    }
    GSP_ASSERT(samples.size() >= 50,
               "expected a fine-grained trace, got ",
               samples.size(), " intervals");

    std::vector<const perf::ChipActivity *> acts;
    for (const ActivitySample &a : samples)
        acts.push_back(&a.delta);
    BatchedPowerEvaluator::Workspace ws;
    std::vector<power::BatchedKernelPower> rows;

    // One variant: the simulator's own model over the whole trace,
    // with the per-block rows the thermal march consumes.
    const BatchedPowerEvaluator &one = sim.powerModel().evaluator();
    double sink = 0.0;
    double compiled_per_s = measureRate(samples.size(), [&] {
        one.evaluate(acts, true, ws, rows);
        sink += rows[0].dynamic_w[0];
    });
    std::fprintf(out,
                 "=== Per-interval power evaluation, one variant "
                 "(GTX580 blackscholes, thermal trace, %zu intervals) "
                 "===\n%.0f intervals/s\n",
                 samples.size(), compiled_per_s);

    // Multi-variant replay: a memoized sweep replays this trace once
    // per power-only variant of the timing fingerprint. Model the
    // Table II grid: process nodes x supply scales at the captured
    // frequency.
    const std::vector<unsigned> nodes = {40u, 28u};
    const std::vector<double> vdds = {0.85, 0.9, 0.95, 1.0, 1.05,
                                      1.1, 1.15, 1.2};
    std::vector<std::unique_ptr<GpuPowerModel>> variant_models;
    for (unsigned node : nodes) {
        for (double v : vdds) {
            GpuConfig vcfg = GpuConfig::gtx580();
            if (node != vcfg.tech.node_nm) {
                vcfg.tech.node_nm = node;
                vcfg.tech.vdd = -1.0; // node-nominal supply
            }
            OperatingPoint op;
            op.vdd_scale = v;
            op.applyTo(vcfg);
            variant_models.push_back(
                std::make_unique<GpuPowerModel>(vcfg));
        }
    }
    std::vector<const GpuPowerModel *> variants;
    for (const auto &m : variant_models)
        variants.push_back(m.get());
    const std::size_t n_variants = variants.size();

    BatchedPowerEvaluator evaluator(variants);
    double batched_per_s =
        measureRate(n_variants * samples.size(), [&] {
            evaluator.evaluate(acts, false, ws, rows);
            sink += rows[0].dynamic_w[0];
        });
    std::fprintf(out,
                 "\n=== Multi-variant replay, batched (%zu variants x "
                 "%zu intervals) ===\n%.0f variant-intervals/s\n",
                 n_variants, samples.size(), batched_per_s);
    // Keep the measured work observable.
    GSP_ASSERT(sink > 0.0, "power evaluation produced no power");

    if (json) {
        std::printf("{\n  \"benchmarks\": [\n");
        std::printf("    {\"name\": \"power_eval/compiled\", "
                    "\"intervals_per_s\": %.17g},\n",
                    compiled_per_s);
        std::printf("    {\"name\": \"power_eval/batched\", "
                    "\"variant_intervals_per_s\": %.17g}\n",
                    batched_per_s);
        std::printf("  ]\n}\n");
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--benchmark_format=json") == 0) {
            json = true;
        } else {
            std::fprintf(stderr, "usage: bench_power_eval "
                                 "[--benchmark_format=json]\n");
            return 1;
        }
    }
    try {
        return runBench(json ? stderr : stdout, json);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
}
