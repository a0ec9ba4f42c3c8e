/**
 * @file
 * Differential test of the two row details (EngineOptions::row_detail).
 * Summary rows — what the sweep service and the CLI sweep compute —
 * must carry every scenario summary column bit-identical to kernel
 * rows, and render the same table, over every registered workload on
 * both chips, four thermal modes (none, a cooling axis with steady
 * solves, the throttling governor, traced 1 us transient thermal),
 * jobs 1 vs 4 and memoization on vs off. Kernel rows must hold
 * kernel_count == kernels.size() and a card_w bit-identical to their
 * report tree's total; summary rows hold no kernels at all.
 *
 * The heavy captures (mergesort, backprop, kmeans) run only in the
 * memoized jobs = 4 leg, and never under the governor (which always
 * simulates in full), to keep the suite fast.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "config/gpu_config.hh"
#include "sim/engine.hh"
#include "sim/session.hh"
#include "sim/sweep.hh"
#include "workloads/workload.hh"

using namespace gpusimpow;
using sim::EngineOptions;
using sim::RowDetail;
using sim::ScenarioResult;
using sim::SweepResult;
using sim::SweepSession;
using sim::SweepSpec;

namespace {

enum class Thermal
{
    none,
    cooling,
    throttle,
    traced,
};

bool
isHeavy(const std::string &workload)
{
    return workload == "mergesort" || workload == "backprop" ||
           workload == "kmeans";
}

std::vector<std::string>
workloadsFor(bool heavy)
{
    std::vector<std::string> out;
    for (const std::string &w : workloads::listWorkloadNames())
        if (heavy || !isHeavy(w))
            out.push_back(w);
    return out;
}

SweepSpec
specFor(Thermal thermal, bool heavy)
{
    SweepSpec spec;
    spec.configs = {GpuConfig::gt240(), GpuConfig::gtx580()};
    spec.workloads = workloadsFor(heavy && thermal != Thermal::throttle);
    switch (thermal) {
    case Thermal::none:
        spec.tech_nodes = {40u, 28u};
        break;
    case Thermal::cooling:
        // Two power models per chip, each shared by two coolings.
        spec.operating_points = {{0.9, 1.0}, {1.0, 1.0}};
        spec.coolings = {"stock", "liquid"};
        break;
    case Thermal::throttle:
        for (GpuConfig &cfg : spec.configs)
            cfg.thermal.throttle = true;
        spec.coolings = {"constrained"};
        break;
    case Thermal::traced:
        spec.coolings = {"stock"};
        break;
    }
    return spec;
}

uint64_t
bits(double v)
{
    uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

/** Every summary column, bit for bit. */
void
expectSameSummary(const ScenarioResult &a, const ScenarioResult &b)
{
    SCOPED_TRACE(a.scenario.label);
    EXPECT_EQ(a.scenario.label, b.scenario.label);
    EXPECT_EQ(a.kernel_count, b.kernel_count);
    const std::pair<const char *, std::pair<double, double>> columns[] = {
        {"time_s", {a.time_s, b.time_s}},
        {"energy_j", {a.energy_j, b.energy_j}},
        {"avg_power_w", {a.avg_power_w, b.avg_power_w}},
        {"static_w", {a.static_w, b.static_w}},
        {"area_mm2", {a.area_mm2, b.area_mm2}},
        {"vdd", {a.vdd, b.vdd}},
        {"shader_hz", {a.shader_hz, b.shader_hz}},
        {"t_max_k", {a.t_max_k, b.t_max_k}},
        {"min_freq_scale", {a.min_freq_scale, b.min_freq_scale}},
    };
    for (const auto &[name, v] : columns)
        EXPECT_EQ(bits(v.first), bits(v.second)) << name;
    EXPECT_EQ(a.verified, b.verified);
    EXPECT_EQ(a.thermal, b.thermal);
    EXPECT_EQ(a.throttled, b.throttled);
    EXPECT_EQ(a.thermal_converged, b.thermal_converged);
}

void
expectShape(const SweepResult &result, RowDetail detail)
{
    for (const ScenarioResult &row : result.rows()) {
        SCOPED_TRACE(row.scenario.label);
        EXPECT_GT(row.kernel_count, 0u);
        if (detail == RowDetail::summary) {
            EXPECT_TRUE(row.kernels.empty());
            continue;
        }
        EXPECT_EQ(row.kernel_count, row.kernels.size());
        for (const sim::KernelResult &k : row.kernels) {
            const power::PowerReport &rep = k.run.report;
            EXPECT_EQ(bits(k.run.card_w),
                      bits(rep.totalPower() + rep.dram_w))
                << k.label;
        }
    }
}

struct Leg
{
    unsigned jobs;
    bool memo;
    bool heavy;
    /** Submit summary rows first: in a memoized leg the first job
     *  captures and the second replays from the session. */
    bool summary_first;
};

/**
 * Run every leg of one thermal mode and check both details against
 * each other and against the first leg's kernel rows.
 */
void
checkMode(Thermal thermal)
{
    const Leg legs[] = {
        {4, true, true, false},
        {1, true, false, true},
        {4, false, false, false},
    };
    std::map<std::string, ScenarioResult> reference;
    for (const Leg &leg : legs) {
        SCOPED_TRACE(::testing::Message()
                     << "jobs " << leg.jobs << " memo " << leg.memo);
        EngineOptions opt =
            EngineOptions().withJobs(leg.jobs).withMemoize(leg.memo);
        if (thermal == Thermal::traced)
            opt.withTrace(true, 1e-6);
        SweepSession session(opt);
        const SweepSpec spec = specFor(thermal, leg.heavy);
        std::map<RowDetail, SweepResult> by_detail;
        for (RowDetail detail :
             leg.summary_first
                 ? std::vector<RowDetail>{RowDetail::summary,
                                          RowDetail::kernels}
                 : std::vector<RowDetail>{RowDetail::kernels,
                                          RowDetail::summary})
            by_detail[detail] = session.submit(spec, {}, detail);

        const SweepResult &kernels = by_detail[RowDetail::kernels];
        const SweepResult &summary = by_detail[RowDetail::summary];
        expectShape(kernels, RowDetail::kernels);
        expectShape(summary, RowDetail::summary);
        EXPECT_EQ(summary.formatTable(), kernels.formatTable());
        ASSERT_EQ(kernels.size(), summary.size());
        for (std::size_t i = 0; i < kernels.size(); ++i) {
            const ScenarioResult &row = kernels.at(i);
            expectSameSummary(row, summary.at(i));
            if (reference.empty() || &leg == &legs[0])
                continue;
            auto it = reference.find(row.scenario.label);
            ASSERT_NE(it, reference.end()) << row.scenario.label;
            expectSameSummary(it->second, row);
        }
        if (&leg == &legs[0])
            for (const ScenarioResult &row : kernels.rows())
                reference.emplace(row.scenario.label, row);
    }
    bool throttled = false;
    for (const auto &[label, row] : reference) {
        EXPECT_EQ(row.thermal, thermal != Thermal::none) << label;
        throttled |= row.throttled;
    }
    EXPECT_EQ(throttled, thermal == Thermal::throttle);
}

} // namespace

TEST(RowDetail, NoThermal) { checkMode(Thermal::none); }

TEST(RowDetail, CoolingAxisSteadyThermal) { checkMode(Thermal::cooling); }

TEST(RowDetail, ThrottleGovernor)
{
    checkMode(Thermal::throttle);
}

TEST(RowDetail, TracedThermal) { checkMode(Thermal::traced); }

TEST(RowDetail, EngineOptionDefaultsToKernelRows)
{
    EXPECT_EQ(EngineOptions().row_detail, RowDetail::kernels);
    SweepSpec spec;
    spec.configs = {GpuConfig::gt240()};
    spec.workloads = {"vectoradd"};
    SweepResult rows = SweepSession(EngineOptions().withJobs(1)).submit(spec);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows.at(0).kernels.size(), rows.at(0).kernel_count);
    SweepResult summary =
        SweepSession(
            EngineOptions().withJobs(1).withRowDetail(RowDetail::summary))
            .submit(spec);
    EXPECT_TRUE(summary.at(0).kernels.empty());
    EXPECT_EQ(summary.formatTable(), rows.formatTable());
}
