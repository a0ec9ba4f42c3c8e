/**
 * @file
 * Workload characterization tests: SectionIV-C claims the benchmarks
 * "span ... an equally wide variety of algorithmic (and thus,
 * dynamic power) characteristics". These tests pin down that each
 * kernel actually exercises the structure it is meant to stress —
 * blackscholes the SFUs, matmul/scalarprod the SMEM, bfs the
 * divergence stack, kmeans2 the atomics, heartwall the constant
 * cache, mergesort the barriers, vectoradd the coalescer — so a
 * regression that flattens the workload mix is caught.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/logging.hh"
#include "kernel_loop.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

using namespace gpusimpow;
using namespace gpusimpow::perf;

namespace {

/** Owning benchmark for each Fig. 6 kernel label. */
const char *
workloadOf(const std::string &label)
{
    static const std::map<std::string, const char *> map = {
        {"backprop1", "backprop"},   {"backprop2", "backprop"},
        {"bfs1", "bfs"},             {"bfs2", "bfs"},
        {"BlackScholes", "blackscholes"},
        {"heartwall", "heartwall"},  {"hotspot", "hotspot"},
        {"kmeans1", "kmeans"},       {"kmeans2", "kmeans"},
        {"matrixMul", "matmul"},     {"mergeSort1", "mergesort"},
        {"mergeSort2", "mergesort"}, {"mergeSort3", "mergesort"},
        {"mergeSort4", "mergesort"}, {"needle1", "needle"},
        {"needle2", "needle"},       {"pathfinder", "pathfinder"},
        {"scalarProd", "scalarprod"},
        {"vectorAdd", "vectoradd"},
    };
    auto it = map.find(label);
    if (it == map.end())
        fatal("unknown kernel label ", label);
    return it->second;
}

/** Lazily simulate one benchmark and cache per-label activity. */
class WorkloadCharacter : public ::testing::Test
{
  protected:
    static const CoreActivity &
    activity(const std::string &label)
    {
        static std::map<std::string, CoreActivity> cache;
        static std::set<std::string> simulated;
        std::string wl_name = workloadOf(label);
        if (!simulated.count(wl_name)) {
            Simulator sim(GpuConfig::gt240());
            auto wl = workloads::makeWorkload(wl_name);
            auto seq = wl->prepare(sim.gpu());
            for (const auto &kl : seq) {
                KernelRun run = test::runKernel(sim, kl.prog, kl.launch);
                CoreActivity total;
                for (const auto &c : run.perf.activity.cores)
                    total += c;
                cache[kl.label] += total;
            }
            EXPECT_TRUE(wl->verify(sim.gpu())) << wl_name;
            simulated.insert(wl_name);
        }
        return cache.at(label);
    }

    static double
    ratio(const std::string &label, uint64_t CoreActivity::*num,
          uint64_t CoreActivity::*den)
    {
        const CoreActivity &a = activity(label);
        uint64_t d = a.*den;
        return d == 0 ? 0.0
                      : static_cast<double>(a.*num) /
                            static_cast<double>(d);
    }
};

} // namespace

TEST_F(WorkloadCharacter, BlackScholesIsSfuAndFpHeavy)
{
    const CoreActivity &a = activity("BlackScholes");
    EXPECT_GT(a.sfu_warp_insts, 0u);
    // FP dominates INT (pricing math vs addressing).
    EXPECT_GT(a.fp_lane_ops, a.int_lane_ops);
    // SFU share is far above the benchmark norm.
    double sfu_share = ratio("BlackScholes",
                             &CoreActivity::sfu_warp_insts,
                             &CoreActivity::issued_insts);
    EXPECT_GT(sfu_share, 0.03);
}

TEST_F(WorkloadCharacter, VectorAddIsPerfectlyCoalesced)
{
    double txn_per_lookup =
        ratio("vectorAdd", &CoreActivity::coalescer_transactions,
              &CoreActivity::coalescer_lookups);
    // 256-thread warps over contiguous floats: ~1 transaction per
    // warp access.
    EXPECT_LT(txn_per_lookup, 1.1);
}

TEST_F(WorkloadCharacter, BfsIsDivergentAndUncoalesced)
{
    const CoreActivity &a = activity("bfs1");
    EXPECT_GT(a.divergent_branches, 100u);
    double txn_per_lookup =
        ratio("bfs1", &CoreActivity::coalescer_transactions,
              &CoreActivity::coalescer_lookups);
    // Neighbor chasing scatters across lines.
    EXPECT_GT(txn_per_lookup, 1.5);
}

TEST_F(WorkloadCharacter, MatmulStagesThroughSharedMemory)
{
    const CoreActivity &a = activity("matrixMul");
    EXPECT_GT(a.smem_accesses, a.coalescer_transactions * 4);
    EXPECT_GT(a.barriers, 0u);
}

TEST_F(WorkloadCharacter, Kmeans2UsesAtomics)
{
    // Atomic RMW shows up as both loads and stores on the same
    // addresses: global stores with no ST instructions in excess.
    const CoreActivity &a = activity("kmeans2");
    EXPECT_GT(a.global_loads + a.global_stores, 0u);
    // kmeans2 performs 5 atomics per point; mem instructions
    // dominate its SFU/FP work.
    EXPECT_GT(a.mem_warp_insts, a.sfu_warp_insts);
}

TEST_F(WorkloadCharacter, HeartwallHitsTheConstantCache)
{
    const CoreActivity &a = activity("heartwall");
    EXPECT_GT(a.const_reads, 1000u);
    // The 25-entry template fits: after warmup everything hits.
    EXPECT_LT(static_cast<double>(a.const_misses),
              0.01 * static_cast<double>(a.const_reads));
}

TEST_F(WorkloadCharacter, MergeSort1IsBarrierBound)
{
    double bars_per_inst =
        ratio("mergeSort1", &CoreActivity::barriers,
              &CoreActivity::issued_insts);
    // One barrier per odd-even phase.
    EXPECT_GT(bars_per_inst, 0.01);
}

TEST_F(WorkloadCharacter, NeedleDivergesInsideTiles)
{
    const CoreActivity &a = activity("needle1");
    EXPECT_GT(a.divergent_branches, 50u);
    EXPECT_GT(a.barriers, 100u);
    EXPECT_GT(a.smem_accesses, 1000u);
}

TEST_F(WorkloadCharacter, ScalarProdReducesInSharedMemory)
{
    const CoreActivity &a = activity("scalarProd");
    EXPECT_GT(a.smem_accesses, 0u);
    EXPECT_GT(a.barriers, 0u);
    EXPECT_GT(a.fp_lane_ops, 0u);
}

TEST_F(WorkloadCharacter, PathfinderMixesSmemAndGlobal)
{
    const CoreActivity &a = activity("pathfinder");
    EXPECT_GT(a.smem_accesses, 0u);
    EXPECT_GT(a.global_loads, 0u);
    EXPECT_GT(a.int_lane_ops, a.fp_lane_ops);   // integer DP
}

TEST_F(WorkloadCharacter, HotspotIsFpStencil)
{
    const CoreActivity &a = activity("hotspot");
    EXPECT_GT(a.fp_lane_ops, 0u);
    EXPECT_GT(a.global_loads, 0u);
    // Clamped edges use predicated selects, not divergence.
    EXPECT_LT(a.divergent_branches, 100u);
}

TEST_F(WorkloadCharacter, DynamicRangeAcrossKernelsIsWide)
{
    // The power-relevant activity mix must differ widely across a
    // representative subset (the paper's "wide variety").
    auto fp_share = [&](const std::string &label) {
        const CoreActivity &a = activity(label);
        return static_cast<double>(a.fp_lane_ops) /
               (static_cast<double>(a.fp_lane_ops) +
                static_cast<double>(a.int_lane_ops) + 1.0);
    };
    EXPECT_LT(fp_share("mergeSort1"), 0.05);    // pure integer
    EXPECT_GT(fp_share("BlackScholes"), 0.5);   // FP dominated
}
