/**
 * @file
 * The one row comparator of the bit-identity tests. rowText() renders
 * a ScenarioResult to text — every double as a hex float (%a), so two
 * rows are bit-identical exactly when their texts are equal — and
 * sameText() compares two renderings, naming the first line that
 * differs.
 *
 * A row's text holds its summary columns and, in kernel detail, per
 * kernel: label, repeatable, the ChipActivity record, the report tree
 * flattened, card_w, the power and thermal traces and every
 * ThermalResult field. The timing core's step counters are left out:
 * they describe how a capture ran, and a snapshot does not carry
 * them.
 *
 * activityText() is the ChipActivity record's text (the bytes
 * tests/golden/activity_digests.txt hashes) and snapshotText() a
 * whole ActivitySnapshot's, so snapshots compare the same way.
 */

#ifndef GPUSIMPOW_TESTS_ROW_TEXT_HH
#define GPUSIMPOW_TESTS_ROW_TEXT_HH

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/strutil.hh"
#include "sim/snapshot.hh"
#include "sim/sweep.hh"

namespace gpusimpow {
namespace test {

/** A ChipActivity record as text: its counts (cores, clusters and
 *  the two field counts), every counter in decimal and elapsed_s as
 *  a hex float. */
inline std::string
activityText(const perf::ChipActivity &act)
{
    std::string out = strformat(
        "chip-activity %zu %zu %u %u\n", act.cores.size(),
        act.cluster_busy_cycles.size(), perf::core_activity_fields,
        perf::mem_activity_fields);
    auto add = [&out](const char *, uint64_t v) {
        out += ' ';
        out += std::to_string(v);
    };
    for (const perf::CoreActivity &c : act.cores) {
        out += "core";
        c.forEach(add);
        out += '\n';
    }
    out += "mem";
    act.mem.forEach(add);
    out += "\nclusters";
    for (uint64_t v : act.cluster_busy_cycles)
        add(nullptr, v);
    out += strformat("\ntotals %llu %llu %llu %a\n",
                     static_cast<unsigned long long>(act.gpu_busy_cycles),
                     static_cast<unsigned long long>(act.blocks_dispatched),
                     static_cast<unsigned long long>(act.shader_cycles),
                     act.elapsed_s);
    return out;
}

/** A whole snapshot as text: header, then per kernel its label,
 *  flags, timing, activity and samples. */
inline std::string
snapshotText(const ActivitySnapshot &snap)
{
    std::string out = strformat(
        "workload %s\nscale %u\nwith_trace %d\nsample_interval_s %a\n"
        "verified %d\nkernels %zu\n",
        snap.workload.c_str(), snap.scale, snap.with_trace ? 1 : 0,
        snap.sample_interval_s, snap.verified ? 1 : 0,
        snap.kernels.size());
    for (const KernelSnapshot &k : snap.kernels) {
        out += strformat(
            "kernel %s\nflags %d %d\nperf %llu %llu %a\n",
            k.label.c_str(), k.repeatable ? 1 : 0, k.with_trace ? 1 : 0,
            static_cast<unsigned long long>(k.perf.cycles),
            static_cast<unsigned long long>(k.perf.instructions),
            k.perf.time_s);
        out += activityText(k.perf.activity);
        out += strformat("samples %zu\n", k.samples.size());
        for (const ActivitySample &s : k.samples) {
            out += strformat("sample %a %a\n", s.t0, s.t1);
            out += activityText(s.delta);
        }
    }
    return out;
}

/** One report node per line, then its children, with '/'-joined
 *  paths. */
inline void
appendReportTree(std::string &out, const power::PowerNode &node,
                 const std::string &parent)
{
    const std::string path = parent + "/" + node.name;
    out += strformat("report %s %a %a %a %a %a\n", path.c_str(),
                     node.area_mm2, node.sub_leakage_w,
                     node.gate_leakage_w, node.peak_dynamic_w,
                     node.runtime_dynamic_w);
    for (const power::PowerNode &child : node.children)
        appendReportTree(out, child, path);
}

inline std::string
kernelText(const sim::KernelResult &k)
{
    const KernelRun &run = k.run;
    std::string out = strformat(
        "kernel %s repeatable %d\nperf cycles %llu time %a "
        "instructions %llu\n",
        k.label.c_str(), k.repeatable ? 1 : 0,
        static_cast<unsigned long long>(run.perf.cycles), run.perf.time_s,
        static_cast<unsigned long long>(run.perf.instructions));
    out += activityText(run.perf.activity);
    appendReportTree(out, run.report.gpu, "");
    out += strformat("report dram %a short_circuit %a elapsed %a\n",
                     run.report.dram_w, run.report.short_circuit_w,
                     run.report.elapsed_s);
    out += strformat("card_w %a\n", run.card_w);
    for (const PowerSample &s : run.trace)
        out += strformat("power %a %a %a %a %a\n", s.t0, s.t1,
                         s.dynamic_w, s.static_w, s.dram_w);
    const ThermalResult &th = run.thermal;
    out += strformat("thermal enabled %d converged %d throttled %d "
                     "iterations %u t_max %a heatsink %a op %a %a\n",
                     th.enabled ? 1 : 0, th.converged ? 1 : 0,
                     th.throttled ? 1 : 0, th.iterations, th.t_max_k,
                     th.heatsink_k, th.op.vdd_scale, th.op.freq_scale);
    out += "blocks";
    for (const std::string &name : th.block_names) {
        out += ' ';
        out += name;
    }
    out += "\nblock_temps";
    for (double t : th.block_temps_k)
        out += strformat(" %a", t);
    out += "\n";
    for (const ThermalSample &s : th.trace) {
        out += strformat("temps %a %a", s.t0, s.t1);
        for (double t : s.temps_k)
            out += strformat(" %a", t);
        out += "\n";
    }
    return out;
}

/** A row as text; RowDetail::summary renders the summary columns
 *  alone, which rows of either detail carry. */
inline std::string
rowText(const sim::ScenarioResult &r,
        sim::RowDetail detail = sim::RowDetail::kernels)
{
    std::string out = strformat(
        "row %s kernels %zu verified %d thermal %d throttled %d "
        "converged %d\n",
        r.scenario.label.c_str(), r.kernel_count, r.verified ? 1 : 0,
        r.thermal ? 1 : 0, r.throttled ? 1 : 0,
        r.thermal_converged ? 1 : 0);
    out += strformat("time %a energy %a avg_power %a static %a area %a "
                     "vdd %a shader_hz %a t_max %a min_freq_scale %a\n",
                     r.time_s, r.energy_j, r.avg_power_w, r.static_w,
                     r.area_mm2, r.vdd, r.shader_hz, r.t_max_k,
                     r.min_freq_scale);
    if (detail == sim::RowDetail::kernels)
        for (const sim::KernelResult &k : r.kernels)
            out += kernelText(k);
    return out;
}

/** Equal texts, or a failure naming the first line that differs. */
inline ::testing::AssertionResult
sameText(std::string_view a, std::string_view b)
{
    if (a == b)
        return ::testing::AssertionSuccess();
    std::size_t line = 1, begin = 0;
    for (std::size_t i = 0; i < a.size() && i < b.size() && a[i] == b[i];
         ++i)
        if (a[i] == '\n') {
            ++line;
            begin = i + 1;
        }
    auto lineAt = [begin](std::string_view text) {
        return begin >= text.size()
                   ? std::string_view("<end of text>")
                   : text.substr(begin, text.find('\n', begin) - begin);
    };
    return ::testing::AssertionFailure()
           << "first difference at line " << line << ":\n  " << lineAt(a)
           << "\n  " << lineAt(b);
}

/** Two tables, row by row in expansion order. */
inline void
expectSameRows(const sim::SweepResult &a, const sim::SweepResult &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(sameText(rowText(a.at(i)), rowText(b.at(i))))
            << a.at(i).scenario.label;
}

} // namespace test
} // namespace gpusimpow

#endif // GPUSIMPOW_TESTS_ROW_TEXT_HH
