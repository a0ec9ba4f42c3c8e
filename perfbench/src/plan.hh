/**
 * @file
 * Seeded job plans of the end-to-end benchmark: for each named
 * workload, the closed-loop sequence of SweepRequests every client
 * sends in one pass. The seed picks the power-axis values of every
 * job, the job order and the client interleaving; the program under
 * test only ever receives the generated requests. The same seed
 * gives a byte-identical plan (describePlan).
 */

#ifndef PERFBENCH_PLAN_HH
#define PERFBENCH_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/request.hh"

namespace perfbench {

/** The three workloads of the benchmark. */
enum class Workload { ColdSweep, WarmService, TracedThermal };

/** Parse a workload name; throws std::invalid_argument if unknown. */
Workload parseWorkload(const std::string &name);
const char *workloadName(Workload w);

/** One pass of a workload, as the clients will submit it. */
struct Plan
{
    Workload workload = Workload::ColdSweep;
    uint64_t seed = 0;
    /** Every distinct request of the pass: the oracle's domain. */
    std::vector<gpusimpow::sim::SweepRequest> distinct;
    /** Per client, the `distinct` index of each request it sends. */
    std::vector<std::vector<std::size_t>> client_jobs;
    /** Session trace options the workload runs with. */
    bool traced = false;
    double sample_interval_s = 20e-6;
    /** Virtual-board seeds of the model-error figure. */
    std::vector<uint64_t> board_seeds;
};

Plan makePlan(Workload workload, uint64_t seed);

/** Canonical text of a plan (serialized requests per client). */
std::string describePlan(const Plan &plan);

/** Every GPU preset the benchmark runs. */
const std::vector<std::string> &gpuPresets();

/** Both GPUs x the light workloads, one scenario each: primes a
 *  store for every power-axes job, and feeds the model error. */
gpusimpow::sim::SweepRequest lightRequest();

} // namespace perfbench

#endif // PERFBENCH_PLAN_HH
