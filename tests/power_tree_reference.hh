/**
 * @file
 * Reference oracles of the power evaluator, kept in the tests:
 *
 *  - PowerReference::evaluate(): the scalar per-interval evaluator
 *    the library used before BatchedPowerEvaluator became its only
 *    evaluator — four dense dot products per core and one per uncore
 *    component (dotCountersRow), each accumulated in the report
 *    tree's traversal order, then the leakage at per-block
 *    temperatures. The production evaluator (evaluateNominal,
 *    evaluate rows, rescaleLeakageAt) must match it bit for bit.
 *  - PowerReference::treeBlockPowers(): the thermal block split
 *    computed the way GpuPowerModel::blockPowers() did before the
 *    flat model — string-path find() lookups and recursive subtree totals
 *    over a report tree, with the folded L2 shares moved back to the
 *    L2 block and the base powers re-derived from the configuration.
 *
 * GpuPowerModel befriends PowerReference so the oracles run on
 * the model's own coefficient rows and static vectors. Deliberately
 * *not* part of the production library.
 */

#ifndef GPUSIMPOW_TESTS_POWER_TREE_REFERENCE_HH
#define GPUSIMPOW_TESTS_POWER_TREE_REFERENCE_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "perf/activity.hh"
#include "power/batched.hh"
#include "power/chip_power.hh"
#include "power/report.hh"

namespace gpusimpow {
namespace power {

struct PowerReference
{
    /**
     * Deterministic dot product of a counter row (X-macro order) with
     * a dense coefficient row: four interleaved partial sums over the
     * unrolled body, the tail on the first, folded (s0+s1)+(s2+s3).
     */
    static double
    dotCountersRow(const double *values, const double *coeff, unsigned n)
    {
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        unsigned i = 0;
        for (; i + 4 <= n; i += 4) {
            s0 += coeff[i] * values[i];
            s1 += coeff[i + 1] * values[i + 1];
            s2 += coeff[i + 2] * values[i + 2];
            s3 += coeff[i + 3] * values[i + 3];
        }
        for (; i < n; ++i)
            s0 += coeff[i] * values[i];
        return (s0 + s1) + (s2 + s3);
    }

    /** The core dynamic-energy rows (X-macro counter order). */
    static const CoreDynCoefficients &
    coreCoefficients(const GpuPowerModel &m)
    {
        return m._core_coeff;
    }

    /**
     * Scalar evaluation of one interval at per-block temperatures
     * (BlockSet order; null or empty evaluates at nominal).
     */
    static void
    evaluate(const GpuPowerModel &m, const perf::ChipActivity &act,
             const std::vector<double> *temps,
             GpuPowerModel::Eval &out)
    {
        GSP_ASSERT(act.cores.size() == m._n_cores,
                   "activity record does not match configuration");
        double elapsed = act.elapsed_s > 0.0 ? act.elapsed_s : 1.0;
        out.elapsed_s = elapsed;
        double cycles = act.shader_cycles > 0
                            ? static_cast<double>(act.shader_cycles)
                            : 1.0;
        double gpu_busy_frac = std::min(
            1.0, static_cast<double>(act.gpu_busy_cycles) / cycles);

        out.blocks.assign(m._blocks.size(), BlockPower{});
        out.core_dyn.resize(static_cast<std::size_t>(m._n_cores) *
                            kCoreComponents);
        out.core_sub.resize(static_cast<std::size_t>(m._n_cores) *
                            kCoreComponents);

        double mem_counters[perf::mem_activity_fields];
        perf::countersToRow(act.mem, mem_counters);

        double l2_dyn_share =
            m._l2_present
                ? dotCountersRow(mem_counters, m._l2_share_coeff.data(),
                                 perf::mem_activity_fields) /
                      elapsed
                : 0.0;
        double l2_gate_share = m._l2_share.gate_leakage_w;

        double cores_dyn = 0.0;
        double analytic_dyn = 0.0;
        double *cd = out.core_dyn.data();
        double counters[perf::core_activity_fields];
        for (unsigned i = 0; i < m._n_cores; ++i) {
            const perf::CoreActivity &a = act.cores[i];
            double resident_frac = std::min(
                1.0, static_cast<double>(a.cycles_resident) / cycles);
            double base =
                m._core_base_dyn_w * m._base_power_scale * resident_frac;
            perf::countersToRow(a, counters);
            double wcu = dotCountersRow(counters, m._core_coeff.wcu.data(),
                                        perf::core_activity_fields) /
                         elapsed;
            double rf = dotCountersRow(counters, m._core_coeff.rf.data(),
                                       perf::core_activity_fields) /
                        elapsed;
            double eu = dotCountersRow(counters, m._core_coeff.eu.data(),
                                       perf::core_activity_fields) /
                        elapsed;
            double ldst =
                dotCountersRow(counters, m._core_coeff.ldst.data(),
                               perf::core_activity_fields) /
                    elapsed +
                l2_dyn_share;
            cd[kCoreBase] = base;
            cd[kCoreWcu] = wcu;
            cd[kCoreRf] = rf;
            cd[kCoreEu] = eu;
            cd[kCoreLdst] = ldst;
            cd[kCoreUndiff] = 0.0;

            double core_dyn_total = 0.0;
            core_dyn_total += base;
            core_dyn_total += wcu;
            core_dyn_total += rf;
            core_dyn_total += eu;
            core_dyn_total += ldst;
            core_dyn_total += 0.0; // Undiff. Core

            analytic_dyn += wcu;
            analytic_dyn += rf;
            analytic_dyn += ldst;

            BlockPower &cluster = out.blocks[m.coreBlock(i)];
            cluster.dynamic_w += core_dyn_total - l2_dyn_share;
            cluster.fixed_w += m._core_gate_total - l2_gate_share;

            cores_dyn += core_dyn_total;
            cd += kCoreComponents;
        }

        double cluster_base_total = 0.0;
        for (uint64_t busy : act.cluster_busy_cycles) {
            cluster_base_total +=
                m._cluster_base_w * m._base_power_scale *
                std::min(1.0, static_cast<double>(busy) / cycles);
        }
        double sched_w =
            m._global_sched_w * m._base_power_scale * gpu_busy_frac;
        out.cluster_base_w = cluster_base_total;
        out.sched_w = sched_w;
        cores_dyn += cluster_base_total;
        cores_dyn += sched_w;

        double noc_dyn =
            m._uncore_busy_w[kUncoreNoc] * gpu_busy_frac +
            dotCountersRow(mem_counters, m._mem_coeff[kUncoreNoc].data(),
                           perf::mem_activity_fields) /
                elapsed;
        analytic_dyn += noc_dyn;
        double mc_dyn =
            m._uncore_busy_w[kUncoreMc] * gpu_busy_frac +
            dotCountersRow(mem_counters, m._mem_coeff[kUncoreMc].data(),
                           perf::mem_activity_fields) /
                elapsed;
        analytic_dyn += mc_dyn;
        double pcie_dyn =
            m._uncore_busy_w[kUncorePcie] * gpu_busy_frac +
            dotCountersRow(mem_counters,
                           m._mem_coeff[kUncorePcie].data(),
                           perf::mem_activity_fields) /
                elapsed;
        out.uncore_dyn = {noc_dyn, mc_dyn, pcie_dyn};

        out.short_circuit_w = m._short_circuit_frac /
                              (1.0 + m._short_circuit_frac) *
                              analytic_dyn;

        double dynamic = 0.0;
        dynamic += cores_dyn;
        dynamic += noc_dyn;
        dynamic += mc_dyn;
        dynamic += pcie_dyn;
        out.dynamic_w = dynamic;

        if (m._l2_present) {
            BlockPower &l2 = out.blocks[m._l2_block];
            l2.dynamic_w = l2_dyn_share * m._n_cores;
            l2.fixed_w = l2_gate_share * m._n_cores;
        }
        for (std::size_t c = 0; c < act.cluster_busy_cycles.size(); ++c) {
            double busy = static_cast<double>(act.cluster_busy_cycles[c]);
            out.blocks[std::min<std::size_t>(c, m._clusters - 1)]
                .dynamic_w += m._cluster_base_w * m._base_power_scale *
                              std::min(1.0, busy / cycles);
        }
        BlockPower &uncore = out.blocks[m._uncore_block];
        uncore.dynamic_w += sched_w;
        for (unsigned comp = 0; comp < kUncoreComponents; ++comp) {
            uncore.dynamic_w += out.uncore_dyn[comp];
            uncore.fixed_w += m._uncore_statics[comp].gate_leakage_w;
        }

        dram::DramActivity da;
        da.activates = act.mem.dram_activates;
        da.read_bursts = act.mem.dram_read_bursts;
        da.write_bursts = act.mem.dram_write_bursts;
        da.elapsed_s = elapsed;
        double total_dram_cycles = elapsed * m._dram_hz * m._dram_channels;
        double util = total_dram_cycles > 0.0
                          ? static_cast<double>(act.mem.dram_bus_cycles) /
                                total_dram_cycles
                          : 0.0;
        da.row_open_frac = std::min(1.0, 4.0 * util);
        out.dram_w = m._dram.compute(da).total();
        out.blocks[m._blocks.dramIndex()].fixed_w = out.dram_w;

        leakage(m, temps, out);
    }

    /** evaluate() into a fresh Eval. */
    static GpuPowerModel::Eval
    evaluate(const GpuPowerModel &m, const perf::ChipActivity &act,
             const std::vector<double> &temps = {})
    {
        GpuPowerModel::Eval ev;
        evaluate(m, act, &temps, ev);
        return ev;
    }

    /**
     * Legacy tree-walk block split of `rep`, which must have been
     * assembled from model's evaluation of act at `temps` (empty:
     * nominal).
     */
    static std::vector<BlockPower>
    treeBlockPowers(const GpuConfig &cfg, const GpuPowerModel &model,
                    const PowerReport &rep, const perf::ChipActivity &act,
                    const std::vector<double> &temps = {})
    {
        const thermal::BlockSet &set = model.thermalBlocks();
        std::vector<BlockPower> bp(set.size());

        double elapsed = rep.elapsed_s > 0.0 ? rep.elapsed_s : 1.0;
        double cycles = act.shader_cycles > 0
                            ? static_cast<double>(act.shader_cycles)
                            : 1.0;
        unsigned n_cores = cfg.numCores();
        double vs = cfg.tech.vdd_scale;
        double base_power_scale = vs * vs * cfg.clocks.freq_scale;

        double r_l2 = 1.0;
        if (set.has_l2 && !temps.empty())
            r_l2 = model.subLeakScaleAt(temps[set.l2Index()]);
        // Per-core folded L2 shares: subs scaled at the L2 block's
        // temperature (that is where the share physically heats).
        double l2_dyn_share = 0.0, l2_sub_share = 0.0,
               l2_gate_share = 0.0;
        if (set.has_l2) {
            double mem[perf::mem_activity_fields];
            perf::countersToRow(act.mem, mem);
            l2_dyn_share = dotCountersRow(mem, model._l2_share_coeff.data(),
                                          perf::mem_activity_fields) /
                           elapsed;
            l2_sub_share = model._l2_share.sub_leakage_w * r_l2;
            l2_gate_share = model._l2_share.gate_leakage_w;
        }

        for (unsigned i = 0; i < n_cores; ++i) {
            const PowerNode *core =
                rep.gpu.find("Cores/Core" + std::to_string(i));
            GSP_ASSERT(core, "report misses Core", i);
            BlockPower &cluster = bp[i / cfg.cores_per_cluster];
            cluster.dynamic_w += core->totalDynamic() - l2_dyn_share;
            cluster.sub_leak_w += core->totalSubLeakage() - l2_sub_share;
            cluster.fixed_w += core->totalGateLeakage() - l2_gate_share;
        }
        if (set.has_l2) {
            BlockPower &l2 = bp[set.l2Index()];
            l2.dynamic_w = l2_dyn_share * n_cores;
            l2.sub_leak_w = l2_sub_share * n_cores;
            l2.fixed_w = l2_gate_share * n_cores;
        }

        for (std::size_t c = 0; c < act.cluster_busy_cycles.size(); ++c) {
            double busy = static_cast<double>(act.cluster_busy_cycles[c]);
            bp[std::min<std::size_t>(c, cfg.clusters - 1)].dynamic_w +=
                cfg.calib.cluster_base_w * base_power_scale *
                std::min(1.0, busy / cycles);
        }
        BlockPower &uncore = bp[set.uncoreIndex()];
        if (const PowerNode *sched =
                rep.gpu.find("Cores/Global Scheduler"))
            uncore.dynamic_w += sched->totalDynamic();
        for (const char *name :
             {"NoC", "Memory Controller", "PCIe Controller"}) {
            const PowerNode *node = rep.gpu.find(name);
            GSP_ASSERT(node, "report misses ", name);
            uncore.dynamic_w += node->totalDynamic();
            uncore.sub_leak_w += node->totalSubLeakage();
            uncore.fixed_w += node->totalGateLeakage();
        }
        bp[set.dramIndex()].fixed_w = rep.dram_w;
        return bp;
    }

  private:
    /** The leakage half of evaluate(): sub_scale, core_sub,
     *  uncore_sub, every block's sub_leak_w and static_w. */
    static void
    leakage(const GpuPowerModel &m, const std::vector<double> *temps,
            GpuPowerModel::Eval &out)
    {
        out.sub_scale.assign(m._blocks.size(), 1.0);
        if (temps && !temps->empty()) {
            GSP_ASSERT(temps->size() == m._blocks.size(),
                       "temperature vector does not match block set");
            for (std::size_t b = 0; b < m._blocks.size(); ++b)
                out.sub_scale[b] = m.subLeakScaleAt((*temps)[b]);
        }
        double r_l2 = m._l2_present ? out.sub_scale[m._l2_block] : 1.0;
        double r_uncore = out.sub_scale[m._uncore_block];
        double l2_sub_share = m._l2_share.sub_leakage_w * r_l2;
        for (BlockPower &b : out.blocks)
            b.sub_leak_w = 0.0;

        double chip_static = 0.0;
        double *cs = out.core_sub.data();
        const auto &st = m._core_statics;
        for (unsigned i = 0; i < m._n_cores; ++i) {
            double rc = out.sub_scale[m.coreBlock(i)];
            double wcu_s = st[kCoreWcu].sub_leakage_w * rc;
            double rf_s = st[kCoreRf].sub_leakage_w * rc;
            double eu_s = st[kCoreEu].sub_leakage_w * rc;
            double ldst_s = st[kCoreLdst].sub_leakage_w * rc + l2_sub_share;
            double undiff_s = st[kCoreUndiff].sub_leakage_w * rc;
            cs[kCoreBase] = 0.0;
            cs[kCoreWcu] = wcu_s;
            cs[kCoreRf] = rf_s;
            cs[kCoreEu] = eu_s;
            cs[kCoreLdst] = ldst_s;
            cs[kCoreUndiff] = undiff_s;

            double core_sub_total = 0.0;
            core_sub_total += 0.0; // Base Power
            core_sub_total += wcu_s;
            core_sub_total += rf_s;
            core_sub_total += eu_s;
            core_sub_total += ldst_s;
            core_sub_total += undiff_s;

            double core_static_total = 0.0;
            core_static_total += 0.0; // Base Power
            core_static_total += wcu_s + st[kCoreWcu].gate_leakage_w;
            core_static_total += rf_s + st[kCoreRf].gate_leakage_w;
            core_static_total += eu_s + st[kCoreEu].gate_leakage_w;
            core_static_total += ldst_s + m._ldst_node_gate;
            core_static_total += undiff_s + 0.0;

            out.blocks[m.coreBlock(i)].sub_leak_w +=
                core_sub_total - l2_sub_share;
            chip_static += core_static_total;
            cs += kCoreComponents;
        }

        const auto &us = m._uncore_statics;
        out.uncore_sub = {us[kUncoreNoc].sub_leakage_w * r_uncore,
                          us[kUncoreMc].sub_leakage_w * r_uncore,
                          us[kUncorePcie].sub_leakage_w * r_uncore};
        chip_static +=
            out.uncore_sub[kUncoreNoc] + us[kUncoreNoc].gate_leakage_w;
        chip_static +=
            out.uncore_sub[kUncoreMc] + us[kUncoreMc].gate_leakage_w;
        chip_static +=
            out.uncore_sub[kUncorePcie] + us[kUncorePcie].gate_leakage_w;
        out.static_w = chip_static;

        if (m._l2_present)
            out.blocks[m._l2_block].sub_leak_w = l2_sub_share * m._n_cores;
        BlockPower &uncore = out.blocks[m._uncore_block];
        for (unsigned comp = 0; comp < kUncoreComponents; ++comp)
            uncore.sub_leak_w += out.uncore_sub[comp];
    }
};

namespace testref {

/** The production nominal evaluation of act: model's evaluator, a
 *  batch of one. */
inline GpuPowerModel::Eval
evaluateNominal(const GpuPowerModel &model, const perf::ChipActivity &act)
{
    GpuPowerModel::Eval ev;
    BatchedPowerEvaluator::Workspace ws;
    model.evaluator().evaluateNominal(act, ws, {&ev, 1});
    return ev;
}

/** Bit-identity of two evaluations, every field. */
inline void
expectSameEval(const GpuPowerModel::Eval &got,
               const GpuPowerModel::Eval &want)
{
    EXPECT_EQ(got.dynamic_w, want.dynamic_w);
    EXPECT_EQ(got.static_w, want.static_w);
    EXPECT_EQ(got.dram_w, want.dram_w);
    EXPECT_EQ(got.short_circuit_w, want.short_circuit_w);
    EXPECT_EQ(got.elapsed_s, want.elapsed_s);
    EXPECT_EQ(got.core_dyn, want.core_dyn);
    EXPECT_EQ(got.core_sub, want.core_sub);
    EXPECT_EQ(got.uncore_dyn, want.uncore_dyn);
    EXPECT_EQ(got.uncore_sub, want.uncore_sub);
    EXPECT_EQ(got.cluster_base_w, want.cluster_base_w);
    EXPECT_EQ(got.sched_w, want.sched_w);
    EXPECT_EQ(got.sub_scale, want.sub_scale);
    EXPECT_EQ(got.cardW(), want.cardW());
    ASSERT_EQ(got.blocks.size(), want.blocks.size());
    for (std::size_t b = 0; b < want.blocks.size(); ++b) {
        SCOPED_TRACE("block " + std::to_string(b));
        EXPECT_EQ(got.blocks[b].dynamic_w, want.blocks[b].dynamic_w);
        EXPECT_EQ(got.blocks[b].sub_leak_w, want.blocks[b].sub_leak_w);
        EXPECT_EQ(got.blocks[b].fixed_w, want.blocks[b].fixed_w);
    }
}

} // namespace testref
} // namespace power
} // namespace gpusimpow

#endif // GPUSIMPOW_TESTS_POWER_TREE_REFERENCE_HH
