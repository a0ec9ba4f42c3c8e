/**
 * @file
 * Scaling and memoization benchmarks of the batch simulation engine.
 *
 * Section 1 runs the Table II configuration sweep (GT240 + GTX580
 * presets x a balanced workload set, 16 scenarios) with 1, 2, 4, and
 * 8 worker threads, reports wall-clock time, throughput, and speedup
 * relative to one worker, and cross-checks that every worker count
 * produced bit-identical energy results — the determinism contract
 * of the engine.
 *
 * Section 2 measures the two-phase memoization on its home turf: a
 * process-node x vdd_scale x cooling sweep, where every scenario of a
 * workload shares one timing fingerprint, so the engine runs timing
 * once per workload and replays the power phase everywhere else. The
 * bench fails unless the schedule is exactly that: 2 captures and 34
 * replays.
 *
 * Section 3 extends that across process lifetimes: the same sweep
 * against a persistent store, cold (captures written to disk) and
 * warm (a fresh session replays everything from disk, zero timing
 * captures), cross-checked bit-identical.
 *
 * With --benchmark_format=json the measurements are emitted to
 * stdout as Google-Benchmark-style JSON (human-readable output moves
 * to stderr), which is what the CI benchmark-regression gate
 * consumes; see bench/check_bench_regression.py.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "sim/session.hh"
#include "store/store.hh"

using namespace gpusimpow;

namespace {

/** One emitted measurement: benchmark name -> named metric values. */
struct BenchRecord
{
    std::string name;
    std::vector<std::pair<std::string, double>> metrics;
};

std::vector<BenchRecord> g_records;

void
record(const std::string &name,
       std::vector<std::pair<std::string, double>> metrics)
{
    g_records.push_back({name, std::move(metrics)});
}

void
printJson()
{
    std::printf("{\n");
    std::printf("  \"context\": {\"hardware_threads\": %u},\n",
                std::thread::hardware_concurrency());
    std::printf("  \"benchmarks\": [\n");
    for (std::size_t i = 0; i < g_records.size(); ++i) {
        const BenchRecord &r = g_records[i];
        std::printf("    {\"name\": \"%s\"", r.name.c_str());
        for (const auto &m : r.metrics)
            std::printf(", \"%s\": %.17g", m.first.c_str(), m.second);
        std::printf("}%s\n", i + 1 < g_records.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
}

sim::SweepSpec
table2Sweep()
{
    sim::SweepSpec spec;
    spec.configs = {GpuConfig::gt240(), GpuConfig::gtx580()};
    spec.workloads = {"heartwall", "bfs",       "hotspot",
                      "scalarprod", "needle",   "vectoradd",
                      "matmul",     "blackscholes"};
    return spec;
}

/** The memoization showcase: every axis here is power-only, so the
 *  36 scenarios collapse onto 2 timing fingerprints (one per
 *  workload). vdd-only operating points keep freq_scale at 1. */
sim::SweepSpec
powerAxesSweep()
{
    sim::SweepSpec spec;
    spec.configs = {GpuConfig::gt240()};
    spec.tech_nodes = {40u, 28u, 20u};
    spec.operating_points =
        OperatingPoint::parseList("0.85:1,0.95:1,1:1");
    spec.coolings = {"stock", "liquid"};
    spec.workloads = {"vectoradd", "matmul"};
    return spec;
}

double
runOnce(const sim::SweepSpec &spec, unsigned jobs,
        std::vector<double> &energies_out,
        std::size_t *replayed_out = nullptr,
        store::StoreHandle store = nullptr,
        std::size_t *captured_out = nullptr)
{
    // Sweeps go through the public SweepSession entry point, same as
    // the CLI and the service; a fresh session per run keeps the
    // in-memory snapshot cache from bleeding between measurements.
    sim::SweepSession session(sim::EngineOptions().withJobs(jobs),
                              std::move(store));
    auto t0 = std::chrono::steady_clock::now();
    sim::SweepResult result = session.submit(spec);
    auto t1 = std::chrono::steady_clock::now();

    energies_out.clear();
    for (const sim::ScenarioResult &r : result.rows()) {
        if (!r.verified)
            fatal("verification failed for ", r.scenario.label);
        energies_out.push_back(r.energy_j);
    }
    if (replayed_out)
        *replayed_out = result.telemetry().replayed;
    if (captured_out)
        *captured_out = result.telemetry().captured;
    return std::chrono::duration<double>(t1 - t0).count();
}

int
runBench(FILE *out)
{
    // --- 1: worker scaling on the Table II sweep ---
    sim::SweepSpec spec = table2Sweep();
    std::size_t n = spec.size();
    std::fprintf(out,
                 "=== Sweep throughput: Table II config sweep "
                 "(%zu scenarios) ===\n", n);
    std::fprintf(out, "hardware threads: %u\n\n",
                 std::thread::hardware_concurrency());

    // Warm-up: page in code and data once, outside the timing.
    std::vector<double> reference;
    runOnce(spec, 1, reference);

    std::fprintf(out, "%6s %12s %16s %9s\n", "jobs", "wall[s]",
                 "scenarios/s", "speedup");
    double base_s = 0.0;
    double speedup_at_8 = 0.0;
    for (unsigned jobs : {1u, 2u, 4u, 8u}) {
        std::vector<double> energies;
        double wall_s = runOnce(spec, jobs, energies);
        if (energies != reference)
            fatal("nondeterministic sweep results at jobs=", jobs);
        if (jobs == 1)
            base_s = wall_s;
        double speedup = base_s / wall_s;
        if (jobs == 8)
            speedup_at_8 = speedup;
        std::fprintf(out, "%6u %12.3f %16.2f %8.2fx\n", jobs, wall_s,
                     n / wall_s, speedup);
        record(strformat("sweep_table2/jobs:%u", jobs),
               {{"wall_s", wall_s}, {"scenarios_per_s", n / wall_s}});
    }
    std::fprintf(out,
                 "\nspeedup at --jobs 8 over --jobs 1: %.2fx "
                 "(results bit-identical at every worker count)\n",
                 speedup_at_8);

    // --- 2: two-phase memoization on power-only axes ---
    sim::SweepSpec memo_spec = powerAxesSweep();
    std::size_t memo_n = memo_spec.size();
    std::fprintf(out,
                 "\n=== Two-phase memoization: node x vdd x cooling "
                 "sweep (%zu scenarios, %zu timing-unique) ===\n",
                 memo_n, memo_spec.workloads.size());
    std::vector<double> memo_e;
    std::size_t replayed = 0, captured = 0;
    double memo_s =
        runOnce(memo_spec, 1, memo_e, &replayed, nullptr, &captured);
    // One capture per workload; every other scenario replays.
    if (captured != 2 || replayed != 34)
        fatal("power-axes sweep captured ", captured, " and replayed ",
              replayed, " scenario(s); expected 2 and 34");
    std::fprintf(out, "%12s %16s %10s %10s\n", "wall[s]", "scenarios/s",
                 "captured", "replayed");
    std::fprintf(out, "%12.3f %16.2f %10zu %10zu\n", memo_s,
                 memo_n / memo_s, captured, replayed);
    record("memo_sweep/replay", {{"wall_s", memo_s},
                                 {"scenarios_per_s", memo_n / memo_s},
                                 {"replayed",
                                  static_cast<double>(replayed)}});

    // --- 3: persistent store: cold capture vs warm replay ---
    // The same power-axes sweep against an on-disk store. The cold
    // run captures and persists; the warm run is a fresh session (a
    // new process, as far as the store can tell) answering entirely
    // from disk — zero timing captures, bit-identical results.
    std::filesystem::path store_dir =
        std::filesystem::temp_directory_path() / "gsp-bench-store";
    std::filesystem::remove_all(store_dir);
    std::vector<double> cold_e, warm_e;
    std::size_t cold_captured = 0, warm_captured = 0;
    double cold_s = runOnce(memo_spec, 1, cold_e, nullptr,
                            store::openStore(store_dir),
                            &cold_captured);
    double warm_s = runOnce(memo_spec, 1, warm_e, nullptr,
                            store::openStore(store_dir),
                            &warm_captured);
    std::filesystem::remove_all(store_dir);
    if (cold_e != memo_e)
        fatal("store-backed sweep results differ from the store-less "
              "run");
    if (warm_e != cold_e)
        fatal("store-served sweep results differ from the cold run");
    if (warm_captured != 0)
        fatal("warm store still captured ", warm_captured,
              " scenario(s)");
    std::fprintf(out,
                 "\n=== Persistent store: warm replay across "
                 "sessions (%zu scenarios) ===\n", memo_n);
    std::fprintf(out, "%6s %12s %16s %10s\n", "run", "wall[s]",
                 "scenarios/s", "captured");
    std::fprintf(out, "%6s %12.3f %16.2f %10zu\n", "cold", cold_s,
                 memo_n / cold_s, cold_captured);
    std::fprintf(out, "%6s %12.3f %16.2f %10zu\n", "warm", warm_s,
                 memo_n / warm_s, warm_captured);
    std::fprintf(out,
                 "warm-store scenario throughput: %.2fx the cold run "
                 "(results bit-identical, zero captures)\n",
                 cold_s / warm_s);
    record("store_sweep/cold", {{"wall_s", cold_s},
                                {"scenarios_per_s", memo_n / cold_s}});
    record("store_sweep/warm", {{"wall_s", warm_s},
                                {"scenarios_per_s", memo_n / warm_s}});
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
                         "usage: bench_sweep_throughput "
                         "[--benchmark_format=json]\n");
            return 1;
        }
    }
    try {
        int rc = runBench(json ? stderr : stdout);
        if (rc == 0 && json)
            printJson();
        return rc;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
}
