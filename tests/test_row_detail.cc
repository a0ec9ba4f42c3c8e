/**
 * @file
 * The row detail (the detail argument of SweepSession::submit):
 * in-process callers get kernel rows by default, and summary rows
 * render the same table. Summary rows against kernel rows over every
 * workload and thermal mode are test_differential's summary leg.
 */

#include <gtest/gtest.h>

#include "config/gpu_config.hh"
#include "sim/session.hh"
#include "sim/sweep.hh"

using namespace gpusimpow;
using sim::EngineOptions;
using sim::RowDetail;
using sim::SweepResult;
using sim::SweepSession;
using sim::SweepSpec;

TEST(RowDetail, EngineOptionDefaultsToKernelRows)
{
    SweepSpec spec;
    spec.configs = {GpuConfig::gt240()};
    spec.workloads = {"vectoradd"};
    // submit() without a detail argument gives kernel rows.
    SweepResult rows = SweepSession(EngineOptions().withJobs(1)).submit(spec);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_NE(rows.at(0).kernel_count, 0u);
    EXPECT_EQ(rows.at(0).kernels.size(), rows.at(0).kernel_count);
    SweepResult summary = SweepSession(EngineOptions().withJobs(1))
                              .submit(spec, {}, RowDetail::summary);
    EXPECT_TRUE(summary.at(0).kernels.empty());
    EXPECT_EQ(summary.formatTable(), rows.formatTable());
}
