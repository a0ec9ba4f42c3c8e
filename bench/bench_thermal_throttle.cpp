/**
 * @file
 * Thermal-throttling characterization plus the thermal fast-path
 * regression metrics.
 *
 * Default mode prints the characterization tables: a sustained
 * compute workload against a bursty memory-bound one on both Table
 * II cards, across cooling solutions, with and without the DVFS
 * throttling governor — the paper's compounding story end to end
 * (under constrained cooling the leakage-temperature loop runs away
 * unless the governor clamps the clock, and the clamp itself costs
 * energy).
 *
 * With --benchmark_format=json the bench instead measures the two
 * thermal hot phases this PR accelerated, new path against a replica
 * of the pre-factorization scalar path, and emits the measurements
 * as Google-Benchmark-style JSON for the CI gate (see
 * bench/check_bench_regression.py and bench/baseline.json):
 *
 *  - traced thermal replay (thermal_replay/traced): the per-kernel
 *    work of replaying a traced thermal scenario stream across a
 *    grid of power-only sweep variants — per-sample power rows, the
 *    transient march, and the whole-kernel steady solve, per
 *    variant. Reference: per-variant scalar evaluation + forward-
 *    Euler march + cold fixed point re-eliminating the dense system
 *    per iteration (solveLinearReference) — the pre-PR sweep replay
 *    loop. Fast: one BatchedPowerEvaluator pass shared by all
 *    variants per kernel + exact-propagator march + warm-started
 *    factored steady solves. Timing capture and the whole-kernel
 *    report are identical on both sides of the production pipeline
 *    and excluded.
 *
 *  - governed decision phase (thermal_replay/governed): the
 *    throttling governor's bisection math per governed scenario (up
 *    to 4 rounds x 40 probes, one steady solve each). Reference:
 *    every probe cold, dense elimination per iteration. Fast:
 *    warm-started factored solves. Both run the same replica of the
 *    runThermal round structure, so the resulting clamps must agree.
 *
 * The factored linear solves are checked bit-identical to the dense
 * reference and the per-interval rows bit-identical to the scalar
 * evaluator before any speedup is reported (fatal otherwise).
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <vector>

#include "common/logging.hh"
#include "config/gpu_config.hh"
#include "power/batched.hh"
#include "power/chip_power.hh"
#include "power/compiled.hh"
#include "sim/engine.hh"
#include "sim/simulator.hh"
#include "thermal/thermal.hh"
#include "workloads/workload.hh"

using namespace gpusimpow;
using power::BlockPower;

namespace {

/** Minimum measured wall time per path, s. */
constexpr double min_measure_s = 0.4;
/** Kernel replays per scenario stream in the traced metric: the
 *  warm-start regime of a multi-kernel scenario (the steady-state
 *  warm start resets with the stream, like recycle() does). */
constexpr unsigned stream_kernels = 16;
/** Replicas of the governor constants in src/sim/simulator.cc. */
constexpr int max_governor_rounds = 4;
constexpr int governor_bisect_steps = 40;
constexpr double governor_slack_k = 0.25;
constexpr double governor_backoff = 0.9;
constexpr double min_throttle_freq_scale = 0.25;

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
            sim::SimulationEngine().runScenario(nominal);
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
                sim::ScenarioResult r =
                    sim::SimulationEngine().runScenario(s);
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

// ------------------------------------------------ fast-path metrics

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

/** Pre-PR steady solve: cold start at ambient, a from-scratch dense
 *  elimination (solveLinearReference) every fixed-point iteration —
 *  the exact historical cost structure, via the kept oracle. */
thermal::SteadyResult
coldDenseSteady(const thermal::ThermalNetwork &net,
                const power::GpuPowerModel &model,
                const std::vector<BlockPower> &bp, double freq_ratio)
{
    thermal::SteadyResult result;
    result.temps_k.assign(bp.size(), net.ambient());
    result.heatsink_k = net.ambient();
    bool capped = false;
    for (unsigned iter = 0; iter < 1000; ++iter) {
        std::vector<double> powers(bp.size(), 0.0);
        for (std::size_t i = 0; i < bp.size(); ++i)
            powers[i] = bp[i].dynamic_w * freq_ratio +
                        bp[i].sub_leak_w *
                            model.subLeakScaleAt(result.temps_k[i]) +
                        bp[i].fixed_w;
        // lint: thermal-solve-ok(pre-PR cost replica: the reference
        // side of the speedup gate must pay dense elimination)
        std::vector<double> nodes = net.solveLinearReference(powers);
        capped = false;
        double delta = 0.0;
        constexpr double cap = thermal::ThermalNetwork::runaway_cap_k;
        for (std::size_t i = 0; i < bp.size(); ++i) {
            double t = nodes[i];
            if (t > cap) {
                t = cap;
                capped = true;
            }
            delta = std::max(delta, std::fabs(t - result.temps_k[i]));
            result.temps_k[i] = t;
        }
        result.heatsink_k = std::min(nodes.back(), cap);
        result.iterations = iter + 1;
        if (delta < 1e-4) {
            result.converged = !capped;
            return result;
        }
    }
    result.converged = false;
    return result;
}

/** New-path steady solve through the factored network, warm-started
 *  from (and refreshing) warm — the Simulator::solveSteady flow. */
thermal::SteadyResult
warmFactoredSteady(const thermal::ThermalNetwork &net,
                   const power::GpuPowerModel &model,
                   const std::vector<BlockPower> &bp,
                   double freq_ratio, std::vector<double> &warm)
{
    thermal::SteadyResult s = net.solveSteady(
        [&](const std::vector<double> &temps) {
            std::vector<double> powers(bp.size(), 0.0);
            for (std::size_t i = 0; i < bp.size(); ++i)
                powers[i] =
                    bp[i].dynamic_w * freq_ratio +
                    bp[i].sub_leak_w * model.subLeakScaleAt(temps[i]) +
                    bp[i].fixed_w;
            return powers;
        },
        warm.empty() ? nullptr : &warm);
    if (s.converged)
        warm = s.temps_k;
    return s;
}

/** Hottest die block (the governor's criterion; DRAM excluded). */
double
dieMax(const thermal::BlockSet &blocks,
       const thermal::SteadyResult &s)
{
    double t = 0.0;
    for (std::size_t i = 0; i < blocks.dramIndex(); ++i)
        t = std::max(t, s.temps_k[i]);
    return t;
}

struct GovernedOutcome
{
    double freq_scale = 1.0;
    bool throttled = false;
    thermal::SteadyResult steady;
};

/**
 * Replica of Simulator::runThermal's governor rounds on a measured
 * power split (analytic rescale, no re-timing): bisect the largest
 * clock whose modeled steady state respects the limit, verify, back
 * off, repeat. steadyFn(bp, freq_ratio) is the only difference
 * between the reference and the fast path, so the resulting clamps
 * must agree.
 */
template <typename SteadyFn>
GovernedOutcome
governPhase(const thermal::BlockSet &blocks,
            std::vector<BlockPower> bp, double limit_k,
            SteadyFn &&steadyFn)
{
    GovernedOutcome out;
    auto within = [&](const thermal::SteadyResult &s, double slack) {
        return s.converged && dieMax(blocks, s) <= limit_k + slack;
    };
    out.steady = steadyFn(bp, 1.0);
    if (within(out.steady, 0.0))
        return out;
    double f_meas = 1.0;
    for (int round = 0; round < max_governor_rounds; ++round) {
        double lo = min_throttle_freq_scale;
        double hi = f_meas;
        double f_new = lo;
        if (within(steadyFn(bp, lo / f_meas), 0.0)) {
            for (int it = 0; it < governor_bisect_steps; ++it) {
                double mid = 0.5 * (lo + hi);
                if (within(steadyFn(bp, mid / f_meas), 0.0))
                    lo = mid;
                else
                    hi = mid;
            }
            f_new = lo;
        }
        out.throttled = true;
        if (round > 0)
            f_new = std::max(min_throttle_freq_scale,
                             f_new * governor_backoff);
        if (f_new >= f_meas * (1.0 - 1e-9)) {
            out.steady = steadyFn(bp, 1.0);
            break;
        }
        // Analytic re-measure at the clamped clock: dynamic power
        // follows the clock, the rest of the split stands.
        for (BlockPower &b : bp)
            b.dynamic_w *= f_new / f_meas;
        f_meas = f_new;
        out.steady = steadyFn(bp, 1.0);
        if (within(out.steady, governor_slack_k))
            break;
    }
    out.freq_scale = f_meas;
    return out;
}

/** One power-only sweep variant of the traced scenario: its own
 *  power model (process node x supply scale), block decomposition,
 *  networks, and whole-kernel power split. */
struct TracedVariant
{
    std::unique_ptr<power::GpuPowerModel> model;
    thermal::BlockSet blocks;
    std::unique_ptr<thermal::ThermalNetwork> net;
    std::vector<BlockPower> bp;
};

int
runMetrics(FILE *out)
{
    // ---- Traced scenario: GTX580 blackscholes under the stock
    // cooler at the default 20 us sampling period, replayed across a
    // Table-II-style grid of power-only variants (process node x
    // supply scale — same timing fingerprint, so one capture serves
    // them all).
    GpuConfig cfg = GpuConfig::gtx580();
    cfg.thermal.applyCooling("stock");
    Simulator sim(cfg);
    auto wl = workloads::makeWorkload("blackscholes", 8);
    auto launches = wl->prepare(sim.gpu());
    GSP_ASSERT(!launches.empty(), "workload produced no kernels");
    KernelSnapshot snap = sim.capturePerf(
        launches[0].prog, launches[0].launch, true, 20e-6);
    const std::size_t n_intervals = snap.samples.size();
    GSP_ASSERT(n_intervals >= 2, "expected a traced kernel, got ",
               n_intervals, " intervals");

    // Per-node supply ranges chosen inside the thermally stable
    // envelope: above these, stock cooling cannot arrest the
    // leakage-temperature loop for this workload (a real sweep would
    // report those cells as runaway, not replay their traces).
    const std::pair<unsigned, double> grid[] = {
        {40u, 0.85}, {40u, 0.9}, {40u, 0.95}, {40u, 1.0},
        {28u, 0.8},  {28u, 0.85}, {28u, 0.9}, {28u, 0.95},
    };
    std::vector<TracedVariant> variants;
    for (const auto &[node, vdd] : grid) {
        {
            GpuConfig vcfg = GpuConfig::gtx580();
            vcfg.thermal.applyCooling("stock");
            if (node != vcfg.tech.node_nm) {
                vcfg.tech.node_nm = node;
                vcfg.tech.vdd = -1.0; // node-nominal supply
            }
            OperatingPoint op;
            op.vdd_scale = vdd;
            op.applyTo(vcfg);
            TracedVariant v;
            v.model = std::make_unique<power::GpuPowerModel>(vcfg);
            v.blocks = v.model->thermalBlocks();
            v.net = std::make_unique<thermal::ThermalNetwork>(
                v.blocks, vcfg.thermal);
            v.bp = v.model->blockPowers(snap.perf.activity);
            variants.push_back(std::move(v));
        }
    }
    const std::size_t n_variants = variants.size();
    const std::size_t n_blocks = variants[0].blocks.size();

    // ---- Bit-identity gates before any speedup is reported.
    for (const TracedVariant &v : variants) {
        std::vector<double> powers(n_blocks, 0.0);
        for (std::size_t i = 0; i < n_blocks; ++i)
            powers[i] = v.bp[i].total();
        for (double scale : {0.0, 0.25, 1.0, 3.5}) {
            std::vector<double> scaled = powers;
            for (double &p : scaled)
                p *= scale;
            std::vector<double> fast =
                v.net->solveLinear(scaled);
            // lint: thermal-solve-ok(bit-identity gate against the
            // dense oracle before any speedup is reported)
            std::vector<double> ref =
                v.net->solveLinearReference(scaled);
            for (std::size_t i = 0; i < fast.size(); ++i)
                if (fast[i] != ref[i])
                    fatal("factored solve diverged from the dense "
                          "reference at node ", i);
        }
    }
    std::vector<const perf::ChipActivity *> acts;
    for (const ActivitySample &a : snap.samples)
        acts.push_back(&a.delta);
    std::vector<const power::CompiledPowerModel *> cpms;
    for (const TracedVariant &v : variants)
        cpms.push_back(&v.model->compiled());
    power::BatchedPowerEvaluator evaluator(cpms);
    power::BatchedPowerEvaluator::Workspace ws;
    std::vector<power::BatchedKernelPower> rows;
    evaluator.evaluate(acts, true, ws, rows);
    {
        power::CompiledPowerModel::Eval ev;
        for (std::size_t v = 0; v < n_variants; ++v) {
            for (std::size_t i = 0; i < n_intervals; ++i) {
                cpms[v]->evaluate(snap.samples[i].delta, ev);
                if (rows[v].dynamic_w[i] != ev.dynamic_w ||
                    rows[v].dram_w[i] != ev.dram_w)
                    fatal("batched rows diverged from the scalar "
                          "evaluator at variant ", v, " interval ",
                          i);
                for (std::size_t b = 0; b < n_blocks; ++b)
                    if (rows[v].block_dynamic_w[i * n_blocks + b] !=
                        ev.blocks[b].dynamic_w)
                        fatal("batched block rows diverged at "
                              "variant ", v, " interval ", i,
                              " block ", b);
            }
        }
    }

    std::fprintf(out,
                 "=== Traced thermal sweep replay: pre-PR scalar "
                 "path vs factored fast path (GTX580 blackscholes, "
                 "%zu variants x %zu intervals x %u-kernel stream) "
                 "===\n",
                 n_variants, n_intervals, stream_kernels);

    // Reference stream: per variant, scalar per-interval evaluation,
    // Euler march, cold dense steady solve per kernel — the pre-PR
    // sweep replay loop (its Euler march is the new allocation-free
    // one, so the reference is if anything conservative).
    std::vector<double> block_powers(n_blocks, 0.0);
    std::vector<double> ref_check(n_variants, 0.0);
    double ref_rate = measureRate([&] {
        power::CompiledPowerModel::Eval ev;
        ref_check.assign(n_variants, 0.0);
        for (std::size_t vi = 0; vi < n_variants; ++vi) {
            const TracedVariant &v = variants[vi];
            const power::CompiledPowerModel &cpm = *cpms[vi];
            thermal::ThermalNetwork::State st = v.net->ambientState();
            for (unsigned k = 0; k < stream_kernels; ++k) {
                for (const ActivitySample &a : snap.samples) {
                    cpm.evaluate(a.delta, ev);
                    for (std::size_t i = 0; i < n_blocks; ++i) {
                        double leak =
                            ev.blocks[i].sub_leak_w *
                            cpm.subLeakScaleAt(st.temps_k[i]);
                        block_powers[i] = ev.blocks[i].dynamic_w +
                                          leak +
                                          ev.blocks[i].fixed_w;
                    }
                    // lint: thermal-solve-ok(pre-PR cost replica:
                    // the reference side of the speedup gate marches
                    // forward Euler)
                    v.net->advanceEulerReference(st, block_powers,
                                                 a.t1 - a.t0);
                    ref_check[vi] += ev.dynamic_w + ev.dram_w;
                }
                thermal::SteadyResult s =
                    coldDenseSteady(*v.net, *v.model, v.bp, 1.0);
                GSP_ASSERT(s.converged, "reference steady diverged");
            }
        }
    });

    // Fast stream: one batched pass shared by every variant per
    // kernel, exact propagator march, warm-started factored steady
    // solves (warm resets with the stream, as recycle() does between
    // scenarios).
    std::vector<std::vector<double>> warm(n_variants);
    std::vector<thermal::ThermalNetwork::State> states(n_variants);
    std::vector<double> fast_check(n_variants, 0.0);
    std::vector<double> fast_tmax(n_variants, 0.0);
    double fast_rate = measureRate([&] {
        fast_check.assign(n_variants, 0.0);
        for (std::size_t vi = 0; vi < n_variants; ++vi) {
            states[vi] = variants[vi].net->ambientState();
            warm[vi].clear();
        }
        for (unsigned k = 0; k < stream_kernels; ++k) {
            evaluator.evaluate(acts, true, ws, rows);
            for (std::size_t vi = 0; vi < n_variants; ++vi) {
                const TracedVariant &v = variants[vi];
                const power::BatchedKernelPower &r = rows[vi];
                thermal::ThermalNetwork::State &st = states[vi];
                for (std::size_t si = 0; si < n_intervals; ++si) {
                    const ActivitySample &a = snap.samples[si];
                    for (std::size_t i = 0; i < n_blocks; ++i) {
                        double fixed =
                            i == v.blocks.dramIndex()
                                ? r.dram_w[si]
                                : r.static_blocks[i].fixed_w;
                        double leak =
                            r.static_blocks[i].sub_leak_w *
                            cpms[vi]->subLeakScaleAt(st.temps_k[i]);
                        block_powers[i] =
                            r.block_dynamic_w[si * n_blocks + i] +
                            leak + fixed;
                    }
                    v.net->advance(st, block_powers,
                                         a.t1 - a.t0);
                    fast_check[vi] += r.dynamic_w[si] + r.dram_w[si];
                }
                thermal::SteadyResult s = warmFactoredSteady(
                    *v.net, *v.model, v.bp, 1.0, warm[vi]);
                GSP_ASSERT(s.converged, "fast steady diverged");
                fast_tmax[vi] = dieMax(v.blocks, s);
            }
        }
    });
    for (std::size_t vi = 0; vi < n_variants; ++vi) {
        // Same rows consumed on both sides, bitwise.
        if (ref_check[vi] != fast_check[vi])
            fatal("traced replay power totals diverged between "
                  "paths at variant ", vi);
        // And the steady solutions agree to the fixed-point
        // tolerance.
        thermal::SteadyResult ref_steady = coldDenseSteady(
            *variants[vi].net, *variants[vi].model,
            variants[vi].bp, 1.0);
        if (std::fabs(dieMax(variants[vi].blocks, ref_steady) -
                      fast_tmax[vi]) > 1e-2)
            fatal("steady solutions diverged between paths at "
                  "variant ", vi);
    }

    double traced_per_s = fast_rate *
                          static_cast<double>(n_variants) *
                          stream_kernels *
                          static_cast<double>(n_intervals);
    double traced_speedup = fast_rate / ref_rate;
    std::fprintf(out, "%10s %22s\n", "path", "sweep-streams/s");
    std::fprintf(out, "%10s %22.1f\n", "scalar", ref_rate);
    std::fprintf(out, "%10s %22.1f\n", "factored", fast_rate);
    std::fprintf(out,
                 "factored path: %.1fx the scalar path (%.0f traced "
                 "thermal variant-intervals/s; rows bit-identical)\n",
                 traced_speedup, traced_per_s);

    // ---- Governed decision phase: GTX580 matmul under constrained
    // cooling (the acceptance scenario — it must clamp).
    GpuConfig gcfg = GpuConfig::gtx580();
    gcfg.thermal.applyCooling("constrained");
    gcfg.thermal.throttle = true;
    Simulator gsim(gcfg);
    auto gwl = workloads::makeWorkload("matmul", 1);
    auto glaunches = gwl->prepare(gsim.gpu());
    KernelSnapshot gsnap =
        gsim.capturePerf(glaunches[0].prog, glaunches[0].launch);
    const power::GpuPowerModel &gmodel = gsim.powerModel();
    thermal::BlockSet gblocks = gmodel.thermalBlocks();
    std::vector<BlockPower> gbp =
        gmodel.blockPowers(gsnap.perf.activity);
    thermal::ThermalNetwork gnet(gblocks, gcfg.thermal);
    const double limit_k = gcfg.thermal.t_limit_k;

    std::fprintf(out,
                 "\n=== Governed decision phase: cold dense solves "
                 "vs warm factored solves (GTX580 matmul, "
                 "constrained) ===\n");

    GovernedOutcome ref_gov;
    double gov_ref_rate = measureRate([&] {
        ref_gov = governPhase(
            gblocks, gbp, limit_k,
            [&](const std::vector<BlockPower> &b, double ratio) {
                return coldDenseSteady(gnet, gmodel, b, ratio);
            });
    });
    GovernedOutcome fast_gov;
    std::vector<double> gov_warm;
    double gov_fast_rate = measureRate([&] {
        gov_warm.clear();
        fast_gov = governPhase(
            gblocks, gbp, limit_k,
            [&](const std::vector<BlockPower> &b, double ratio) {
                return warmFactoredSteady(gnet, gmodel, b, ratio,
                                          gov_warm);
            });
    });
    if (!ref_gov.throttled || !fast_gov.throttled)
        fatal("governed scenario did not throttle");
    // The warm start changes iteration counts, not the fixed points:
    // both paths must land on the same clamp (bisect resolution).
    if (std::fabs(ref_gov.freq_scale - fast_gov.freq_scale) > 1e-3)
        fatal("governor clamps diverged: ref ", ref_gov.freq_scale,
              " vs fast ", fast_gov.freq_scale);

    double gov_speedup = gov_fast_rate / gov_ref_rate;
    std::fprintf(out, "%10s %18s %12s\n", "path", "scenarios/s",
                 "clamp");
    std::fprintf(out, "%10s %18.1f %12.4f\n", "cold", gov_ref_rate,
                 ref_gov.freq_scale);
    std::fprintf(out, "%10s %18.1f %12.4f\n", "warm", gov_fast_rate,
                 fast_gov.freq_scale);
    std::fprintf(out,
                 "warm factored path: %.1fx the cold dense path "
                 "(identical clamp)\n", gov_speedup);

    std::printf("{\n  \"benchmarks\": [\n");
    std::printf("    {\"name\": \"thermal_replay/traced\", "
                "\"intervals_per_s\": %.17g},\n", traced_per_s);
    std::printf("    {\"name\": \"thermal_replay/traced_speedup\", "
                "\"speedup\": %.17g},\n", traced_speedup);
    std::printf("    {\"name\": \"thermal_replay/governed\", "
                "\"scenarios_per_s\": %.17g},\n", gov_fast_rate);
    std::printf("    {\"name\": \"thermal_replay/governed_speedup\", "
                "\"speedup\": %.17g}\n", gov_speedup);
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
