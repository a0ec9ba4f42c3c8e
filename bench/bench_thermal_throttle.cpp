/**
 * @file
 * Thermal-throttling characterization plus the thermal replay
 * throughput metrics.
 *
 * Default mode prints the characterization tables: a sustained
 * compute workload against a bursty memory-bound one on both Table
 * II cards, across cooling solutions, with and without the DVFS
 * throttling governor — the paper's compounding story end to end
 * (under constrained cooling the leakage-temperature loop runs away
 * unless the governor clamps the clock, and the clamp itself costs
 * energy).
 *
 * With --benchmark_format=json the bench instead times the two
 * thermal paths production runs, and emits the rates as
 * Google-Benchmark-style JSON for the CI gate (see
 * bench/check_bench_regression.py and bench/baseline.json):
 *
 *  - traced thermal replay (thermal_replay/traced): one
 *    SweepSession::submit over 8 power-only (process node x supply
 *    scale) variants of GTX580 blackscholes under the stock cooler,
 *    on a session an untimed submit of the same spec primed with
 *    their traced snapshot. All 8 share one snapshotKey(), so each
 *    timed submit is one batched replay group fed from the session's
 *    memory: per-variant Simulators, one batched interval-power
 *    pass, the exact-propagator march and the whole-kernel steady
 *    solve. Reported as variant-intervals/s.
 *
 *  - governed scenario (thermal_replay/governed_scenario): a whole
 *    SweepSession::runScenario of the governed GTX580 matmul
 *    under constrained cooling — the nominal capture (keeping the
 *    kernel's entry memory), the governor's bisection over
 *    warm-started steady solves, and the clamped re-capture from
 *    that entry state.
 *
 * Equivalence of these paths to their oracles is the test suite's
 * job (test_thermal, test_batched_power), not this bench's.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <utility>

#include "common/logging.hh"
#include "config/gpu_config.hh"
#include "sim/session.hh"

using namespace gpusimpow;

namespace {

/** Minimum measured wall time per metric, s. */
constexpr double min_measure_s = 0.4;

struct Case
{
    const char *kind;
    const char *workload;
    unsigned scale;
};

void
runCard(const char *card, const GpuConfig &base)
{
    // Sustained: back-to-back dense compute. Bursty: one short
    // memory-bound burst (mostly DRAM and base power).
    const Case cases[] = {
        {"sustained", "matmul", 2},
        {"bursty", "vectoradd", 1},
    };
    const char *coolings[] = {"stock", "constrained"};

    std::printf("=== %s ===\n", card);
    std::printf("%-10s %-12s %-12s %-9s %9s %7s %7s %11s %11s\n",
                "kind", "workload", "cooling", "governor", "Tmax[K]",
                "conv", "fclk", "time[us]", "energy[mJ]");
    for (const Case &c : cases) {
        // Nominal reference: thermal loop off, the static 350 K
        // config constant.
        sim::Scenario nominal;
        nominal.config = base;
        nominal.workload = c.workload;
        nominal.scale = c.scale;
        sim::ScenarioResult ref =
            sim::SweepSession().runScenario(nominal);
        std::printf("%-10s %-12s %-12s %-9s %9s %7s %7s %11.1f "
                    "%11.3f\n",
                    c.kind, c.workload, "(none)", "off", "350.0*",
                    "-", "1.000", ref.time_s * 1e6,
                    ref.energy_j * 1e3);

        for (const char *cooling : coolings) {
            for (bool governor : {false, true}) {
                sim::Scenario s = nominal;
                s.config.thermal.applyCooling(cooling);
                s.config.thermal.throttle = governor;
                sim::ScenarioResult r = sim::SweepSession().runScenario(s);
                std::printf(
                    "%-10s %-12s %-12s %-9s %9.1f %7s %7.3f %11.1f "
                    "%11.3f%s\n",
                    c.kind, c.workload, cooling,
                    governor ? "on" : "off", r.t_max_k,
                    r.thermal_converged ? "yes" : "NO",
                    r.min_freq_scale, r.time_s * 1e6,
                    r.energy_j * 1e3,
                    r.throttled ? "  <- throttled" : "");
            }
        }
    }
    std::printf("(* junction temperature fixed by configuration)\n\n");
}

// ------------------------------------------------------------ metrics

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Repeat fn until min_measure_s elapses (after one warm-up call);
 *  returns reps per second. */
template <typename Fn>
double
measureRate(Fn &&fn)
{
    fn();
    double t0 = now();
    std::size_t reps = 0;
    double elapsed = 0.0;
    do {
        fn();
        ++reps;
        elapsed = now() - t0;
    } while (elapsed < min_measure_s);
    return static_cast<double>(reps) / elapsed;
}

int
runMetrics(FILE *out)
{
    // ---- Traced scenario: GTX580 blackscholes under the stock
    // cooler at the default 20 us sampling period, captured once.
    constexpr double sample_interval_s = 20e-6;
    sim::Scenario traced;
    traced.config = GpuConfig::gtx580();
    traced.config.thermal.applyCooling("stock");
    traced.workload = "blackscholes";
    traced.scale = 8;

    // A Table-II-style grid of power-only variants (process node x
    // supply scale — same timing fingerprint, so the one snapshot
    // serves them all). Per-node supply ranges sit inside the
    // thermally stable envelope: above these, stock cooling cannot
    // arrest the leakage-temperature loop for this workload.
    const std::pair<unsigned, double> grid[] = {
        {40u, 0.85}, {40u, 0.9}, {40u, 0.95}, {40u, 1.0},
        {28u, 0.8},  {28u, 0.85}, {28u, 0.9}, {28u, 0.95},
    };
    sim::SweepSpec spec;
    spec.workloads = {traced.workload};
    spec.scale = traced.scale;
    for (const auto &[node, vdd] : grid) {
        GpuConfig vcfg = traced.config;
        if (node != vcfg.tech.node_nm) {
            vcfg.tech.node_nm = node;
            vcfg.tech.vdd = -1.0; // node-nominal supply
        }
        OperatingPoint op;
        op.vdd_scale = vdd;
        op.applyTo(vcfg);
        spec.configs.push_back(vcfg);
    }
    const std::size_t n_variants = spec.configs.size();

    // The untimed first submit captures the variants' one snapshot
    // into the session's memory; every timed submit replays from it.
    sim::SweepSession session(sim::EngineOptions().withJobs(1).withTrace(
        true, sample_interval_s));
    sim::SweepResult replay = session.submit(spec);
    std::size_t n_intervals = 0;
    for (const sim::KernelResult &k : replay.at(0).kernels)
        n_intervals += k.run.trace.size();
    GSP_ASSERT(n_intervals >= 2, "expected a traced kernel, got ",
               n_intervals, " intervals");
    double traced_rate =
        measureRate([&] { replay = session.submit(spec); });
    GSP_ASSERT(replay.telemetry().replayed == n_variants &&
                   replay.telemetry().captured == 0,
               "the variants did not replay as one snapshot group");
    for (const sim::ScenarioResult &r : replay.rows())
        GSP_ASSERT(r.thermal_converged, "traced variant ",
                   r.scenario.label, " ran away");
    double traced_per_s = traced_rate *
                          static_cast<double>(n_variants) *
                          static_cast<double>(n_intervals);
    std::fprintf(out,
                 "=== Traced thermal sweep replay (GTX580 "
                 "blackscholes, %zu variants x %zu intervals) ===\n"
                 "%.1f submits/s, %.0f variant-intervals/s\n",
                 n_variants, n_intervals, traced_rate, traced_per_s);

    // ---- Governed scenario: GTX580 matmul under constrained
    // cooling (the acceptance scenario — it must clamp).
    sim::Scenario governed;
    governed.config = GpuConfig::gtx580();
    governed.config.thermal.applyCooling("constrained");
    governed.config.thermal.throttle = true;
    governed.workload = "matmul";
    sim::ScenarioResult gov;
    double gov_rate = measureRate(
        [&] { gov = sim::SweepSession().runScenario(governed); });
    if (!gov.throttled)
        fatal("governed scenario did not throttle");
    std::fprintf(out,
                 "\n=== Governed scenario (GTX580 matmul, "
                 "constrained) ===\n"
                 "%.1f scenarios/s, clamp %.4f\n",
                 gov_rate, gov.min_freq_scale);

    std::printf("{\n  \"benchmarks\": [\n");
    std::printf("    {\"name\": \"thermal_replay/traced\", "
                "\"intervals_per_s\": %.17g},\n", traced_per_s);
    std::printf("    {\"name\": \"thermal_replay/governed_scenario\", "
                "\"scenarios_per_s\": %.17g}\n", gov_rate);
    std::printf("  ]\n}\n");
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
            std::fprintf(stderr,
                         "usage: bench_thermal_throttle "
                         "[--benchmark_format=json]\n");
            return 1;
        }
    }
    try {
        if (json)
            return runMetrics(stderr);
        runCard("GeForce GT240", GpuConfig::gt240());
        runCard("GeForce GTX580", GpuConfig::gtx580());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bench_thermal_throttle: %s\n", e.what());
        return 1;
    }
}
