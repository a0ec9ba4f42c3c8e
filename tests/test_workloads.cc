/**
 * @file
 * Workload-level integration tests: every Table I benchmark runs on
 * both evaluated GPUs and verifies its device results against the
 * host reference (functional correctness of the whole simulator
 * under realistic kernels). Parameterized over (workload, GPU).
 */

#include <set>

#include <gtest/gtest.h>

#include "common/logging.hh"

#include "kernel_loop.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

using namespace gpusimpow;

class WorkloadRun
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string>>
{
};

TEST_P(WorkloadRun, VerifiesAgainstHostReference)
{
    auto [wl_name, gpu_name] = GetParam();
    GpuConfig cfg = gpu_name == "gt240" ? GpuConfig::gt240()
                                        : GpuConfig::gtx580();
    Simulator sim(cfg);
    auto wl = workloads::makeWorkload(wl_name);
    auto seq = wl->prepare(sim.gpu());
    ASSERT_FALSE(seq.empty());
    for (const auto &kl : seq) {
        KernelRun run = test::runKernel(sim, kl.prog, kl.launch);
        EXPECT_GT(run.perf.cycles, 0u);
        EXPECT_GT(run.report.dynamicPower(), 0.0) << kl.label;
    }
    EXPECT_TRUE(wl->verify(sim.gpu())) << wl_name << " on " << gpu_name;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, WorkloadRun,
    ::testing::Combine(
        ::testing::Values("vectoradd", "scalarprod", "matmul",
                          "blackscholes", "mergesort", "bfs", "hotspot",
                          "pathfinder", "kmeans", "backprop",
                          "heartwall", "needle"),
        ::testing::Values("gt240", "gtx580")),
    // Not named `info`: the INSTANTIATE_ macro expands around this
    // lambda with its own `info` parameter, which -Wshadow flags.
    [](const auto &param_info) {
        return std::get<0>(param_info.param) + "_" +
               std::get<1>(param_info.param);
    });

TEST(WorkloadRegistry, TableOneInventory)
{
    auto all = workloads::makeAllWorkloads();
    EXPECT_EQ(all.size(), 12u);   // 11 from Table I + needle
    for (const auto &wl : all) {
        EXPECT_FALSE(wl->description().empty());
        EXPECT_TRUE(wl->origin() == "Rodinia" ||
                    wl->origin() == "CUDA SDK");
    }
}

TEST(WorkloadRegistry, Figure6OrderHasNineteenKernels)
{
    auto order = workloads::figure6KernelOrder();
    EXPECT_EQ(order.size(), 19u);
    // Every label in the order is produced by some workload.
    perf::Gpu gpu(GpuConfig::gt240());
    std::set<std::string> produced;
    for (auto &wl : workloads::makeAllWorkloads()) {
        for (const auto &kl : wl->prepare(gpu))
            produced.insert(kl.label);
    }
    for (const auto &label : order)
        EXPECT_TRUE(produced.count(label)) << label;
}

TEST(WorkloadRegistry, UnknownNameIsFatal)
{
    EXPECT_THROW(workloads::makeWorkload("nonesuch"), FatalError);
}

TEST(WorkloadRegistry, MergeSort3IsNotRepeatable)
{
    perf::Gpu gpu(GpuConfig::gt240());
    auto wl = workloads::makeWorkload("mergesort");
    auto seq = wl->prepare(gpu);
    bool found = false;
    for (const auto &kl : seq) {
        if (kl.label == "mergeSort3") {
            EXPECT_FALSE(kl.repeatable);
            found = true;
        } else {
            EXPECT_TRUE(kl.repeatable);
        }
    }
    EXPECT_TRUE(found);
}
