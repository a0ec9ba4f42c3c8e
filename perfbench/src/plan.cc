#include "plan.hh"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/random.hh"
#include "common/strutil.hh"

namespace perfbench {

using gpusimpow::SplitMix64;
using gpusimpow::strformat;
using gpusimpow::sim::SweepRequest;

namespace {

/** Process nodes (nm) and supply scales (at nominal clock) the seed
 *  draws from: power-only axes, so no pick changes timing. */
const std::vector<unsigned> node_pool = {65, 55, 45, 40, 32, 28, 22};
const std::vector<double> vdd_pool = {0.90, 0.92, 0.94, 0.96,
                                      0.98, 1.00, 1.02, 1.04,
                                      1.06, 1.08, 1.10, 1.12};
const char *const all_coolings = "stock,constrained,liquid";

/** Jobs per client in one warm_service pass (both clients send the
 *  same distinct jobs, in their own seeded orders). Odd, so the
 *  median job is one job's latency, not the midpoint of two. */
constexpr std::size_t warm_jobs = 3;
/** Supply scales per warm job: 2 gpus x 6 workloads x 4 nodes x 8
 *  supplies x 3 coolings = 1152 scenarios. */
constexpr std::size_t warm_nodes = 4, warm_vdds = 8;
/** traced_thermal: 2 x 6 x 3 nodes x 4 supplies x 3 coolings = 432
 *  scenarios, sampled every microsecond. */
constexpr std::size_t traced_nodes = 3, traced_vdds = 4;
constexpr double traced_sample_s = 1e-6;
/** Virtual boards averaged into the model-error figure. */
constexpr std::size_t boards = 16;

std::string
join(const std::vector<std::string> &items)
{
    std::string out;
    for (const std::string &s : items)
        out += (out.empty() ? "" : ",") + s;
    return out;
}

/** Fisher-Yates on the repo's SplitMix64: unlike std::shuffle, the
 *  result is fixed by the seed on every standard library. */
template <typename T>
void
shuffle(std::vector<T> &v, SplitMix64 &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.nextBounded(i)]);
}

/** `count` distinct pool entries, kept in pool order. */
template <typename T>
std::vector<T>
pick(const std::vector<T> &pool, std::size_t count, SplitMix64 &rng)
{
    std::vector<std::size_t> idx(pool.size());
    for (std::size_t i = 0; i < idx.size(); ++i)
        idx[i] = i;
    shuffle(idx, rng);
    idx.resize(count);
    std::sort(idx.begin(), idx.end());
    std::vector<T> out;
    for (std::size_t i : idx)
        out.push_back(pool[i]);
    return out;
}

std::string
nodeList(const std::vector<unsigned> &nodes)
{
    std::vector<std::string> s;
    for (unsigned n : nodes)
        s.push_back(strformat("%u", n));
    return join(s);
}

/** Supply-only operating points: "V:1" keeps the clock nominal. */
std::string
vddList(const std::vector<double> &vdds)
{
    std::vector<std::string> s;
    for (double v : vdds)
        s.push_back(strformat("%.2f:1", v));
    return join(s);
}

/** Workloads of the cold mix, in registry order, so the engine's own
 *  scheduling decides where the long captures go. */
const std::vector<std::string> &
coldMix(const std::string &gpu)
{
    // Stall-bound kmeans and bfs next to compute-bound matmul and
    // blackscholes. mergesort, backprop and the GT240's kmeans are
    // left out: each of those single captures takes 5-15 s, which
    // would bound a whole pass and make its wall time depend on
    // where the seed puts that one scenario.
    static const std::vector<std::string> gt240 = {
        "heartwall", "bfs",        "hotspot",   "matmul",
        "blackscholes", "scalarprod", "vectoradd", "needle"};
    static const std::vector<std::string> gtx580 = {
        "heartwall",    "kmeans",     "bfs",   "hotspot", "matmul",
        "blackscholes", "scalarprod", "needle"};
    return gpu == "gt240" ? gt240 : gtx580;
}

/** The light workloads of the warm, traced and model-error runs. */
const std::vector<std::string> &
lightWorkloads()
{
    static const std::vector<std::string> light = {
        "pathfinder", "matmul",     "blackscholes",
        "vectoradd",  "scalarprod", "needle"};
    return light;
}

/** A power-axes request over both GPUs and the light workloads. */
SweepRequest
powerAxesJob(std::size_t nodes, std::size_t vdds, SplitMix64 &rng)
{
    return lightRequest()
        .withNodes(nodeList(pick(node_pool, nodes, rng)))
        .withVf(vddList(pick(vdd_pool, vdds, rng)))
        .withCoolings(all_coolings);
}

} // namespace

Workload
parseWorkload(const std::string &name)
{
    for (Workload w : {Workload::ColdSweep, Workload::WarmService,
                       Workload::TracedThermal})
        if (name == workloadName(w))
            return w;
    throw std::invalid_argument("unknown workload '" + name + "'");
}

const char *
workloadName(Workload w)
{
    switch (w) {
    case Workload::ColdSweep:
        return "cold_sweep";
    case Workload::WarmService:
        return "warm_service";
    case Workload::TracedThermal:
        return "traced_thermal";
    }
    return "?";
}

const std::vector<std::string> &
gpuPresets()
{
    static const std::vector<std::string> gpus = {"gt240", "gtx580"};
    return gpus;
}

SweepRequest
lightRequest()
{
    return SweepRequest()
        .withGpus(join(gpuPresets()))
        .withWorkloads(join(lightWorkloads()));
}

Plan
makePlan(Workload workload, uint64_t seed)
{
    Plan plan;
    plan.workload = workload;
    plan.seed = seed;
    // One stream per workload, so adding a draw to one workload
    // never shifts another's plan.
    SplitMix64 rng(seed * 0x9e3779b97f4a7c15ULL +
                   static_cast<uint64_t>(workload) + 1);
    for (std::size_t b = 0; b < boards; ++b)
        plan.board_seeds.push_back(rng.next());

    switch (workload) {
    case Workload::ColdSweep: {
        // Timing-unique: each job runs one GPU's workloads at one node
        // and supply, so no two scenarios of a pass share a snapshot
        // key and every one of them is a capture. Three jobs of well
        // separated cost (GT240 stall-bound half, GT240 compute-bound
        // half, the whole GTX580 mix), so the median job is always
        // the same job.
        const std::vector<std::string> &gt240 = coldMix("gt240");
        const std::vector<std::pair<std::string,
                                    std::vector<std::string>>>
            jobs = {
                {"gt240", {gt240[0], gt240[1], gt240[2], gt240[7]}},
                {"gt240", {gt240[3], gt240[4], gt240[5], gt240[6]}},
                {"gtx580", coldMix("gtx580")},
            };
        for (const auto &[gpu, workloads] : jobs)
            plan.distinct.push_back(
                SweepRequest()
                    .withGpus(gpu)
                    .withWorkloads(join(workloads))
                    .withNodes(nodeList(pick(node_pool, 1, rng)))
                    .withVf(vddList(pick(vdd_pool, 1, rng))));
        std::vector<std::size_t> order(plan.distinct.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        shuffle(order, rng);
        plan.client_jobs = {order};
        break;
    }
    case Workload::WarmService: {
        for (std::size_t j = 0; j < warm_jobs; ++j)
            plan.distinct.push_back(
                powerAxesJob(warm_nodes, warm_vdds, rng));
        for (int client = 0; client < 2; ++client) {
            std::vector<std::size_t> order(warm_jobs);
            for (std::size_t i = 0; i < order.size(); ++i)
                order[i] = i;
            shuffle(order, rng);
            plan.client_jobs.push_back(order);
        }
        break;
    }
    case Workload::TracedThermal:
        plan.traced = true;
        plan.sample_interval_s = traced_sample_s;
        plan.distinct.push_back(
            powerAxesJob(traced_nodes, traced_vdds, rng));
        plan.client_jobs = {{0}};
        break;
    }
    return plan;
}

std::string
describePlan(const Plan &plan)
{
    std::string out = strformat(
        "plan %s seed %llu traced %d sample_interval_s %a\n",
        workloadName(plan.workload),
        static_cast<unsigned long long>(plan.seed), plan.traced ? 1 : 0,
        plan.sample_interval_s);
    for (uint64_t b : plan.board_seeds)
        out += strformat("board %016llx\n",
                         static_cast<unsigned long long>(b));
    for (std::size_t c = 0; c < plan.client_jobs.size(); ++c)
        for (std::size_t j = 0; j < plan.client_jobs[c].size(); ++j)
            out += strformat("client %zu job %zu\n", c, j) +
                   plan.distinct[plan.client_jobs[c][j]].serialize() +
                   "\n";
    return out;
}

} // namespace perfbench
