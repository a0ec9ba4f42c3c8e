#include "power/compiled.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/logging.hh"
#include "obs/trace.hh"

namespace gpusimpow {
namespace power {

CompiledPowerModel::CompiledPowerModel(const CompiledModelInputs &in)
{
    GSP_TRACE_SPAN("power/compile");
    GSP_ASSERT(in.cfg && in.tech && in.core && in.dram,
               "compiled power model needs a fully populated input set");
    const GpuConfig &cfg = *in.cfg;

    _n_cores = cfg.numCores();
    _clusters = cfg.clusters;
    _cores_per_cluster = cfg.cores_per_cluster;
    _l2_present = cfg.l2.present;
    _base_power_scale = in.base_power_scale;
    _core_base_dyn_w = cfg.calib.core_base_dyn_w;
    _cluster_base_w = cfg.calib.cluster_base_w;
    _global_sched_w = cfg.calib.global_sched_w;
    _short_circuit_frac = cfg.calib.short_circuit_frac;
    _nominal_leak_factor = tech::tempLeakFactorAt(in.tech->temperature);
    _dram_hz = cfg.clocks.dram_hz;
    _dram_channels = cfg.dram.channels;
    _dram = in.dram;
    _blocks = in.blocks;
    _l2_block = _l2_present ? _blocks.l2Index() : 0;
    _uncore_block = _blocks.uncoreIndex();

    // --- dynamic-energy rows ---
    in.core->dynCoefficients(_core_coeff);

    using M = perf::MemCounterIndex;
    _mem_coeff[kUncoreNoc][M::noc_flits] = in.noc_flit_energy_j;
    _mem_coeff[kUncoreMc][M::mc_requests] = in.mc_request_energy_j;
    double bits_per_burst = static_cast<double>(cfg.dram.burst_length) *
                            cfg.dram.channel_bits;
    _mem_coeff[kUncoreMc][M::dram_read_bursts] =
        bits_per_burst * in.mc_bit_energy_j;
    _mem_coeff[kUncoreMc][M::dram_write_bursts] =
        bits_per_burst * in.mc_bit_energy_j;
    _mem_coeff[kUncorePcie][M::pcie_bytes] = in.pcie_byte_energy_j;
    _uncore_busy_w = {in.noc_busy_w, in.mc_busy_w, in.pcie_active_w};

    // --- static vectors ---
    _core_statics[kCoreWcu] = in.core->wcuStatics();
    _core_statics[kCoreRf] = in.core->rfStatics();
    _core_statics[kCoreEu] = in.core->euStatics();
    _core_statics[kCoreLdst] = in.core->ldstStatics();
    ComponentStatics undiff;
    // The lumped residual was measured at nominal supply; leakage
    // power tracks roughly V^2 over DVFS-sized supply excursions.
    undiff.sub_leakage_w = cfg.calib.undiff_core_static_w *
                           (cfg.tech.vdd_scale * cfg.tech.vdd_scale);
    undiff.area_mm2 = cfg.calib.undiff_core_area_mm2;
    _core_statics[kCoreUndiff] = undiff;

    if (_l2_present) {
        // The paper's LDSTU "encapsulates ... the L2 caches"; the
        // shared L2 is spread across the cores' LDSTUs in the report
        // but keeps its own thermal block, so its share stays a
        // separate compiled component.
        _l2_share.area_mm2 = in.l2.area_mm2 / _n_cores;
        _l2_share.sub_leakage_w = in.l2.sub_leakage_w / _n_cores;
        _l2_share.gate_leakage_w = in.l2.gate_leakage_w / _n_cores;
        _l2_share.peak_dynamic_w = in.l2.peak_dynamic_w / _n_cores;
        _l2_share_coeff[M::l2_reads] =
            in.l2_access_energy_j / _n_cores;
        _l2_share_coeff[M::l2_writes] =
            in.l2_access_energy_j / _n_cores;
    }

    _uncore_statics = {in.noc, in.mc, in.pcie};

    // LDSTU report-node constants with the folded L2 share.
    _ldst_node_area =
        _core_statics[kCoreLdst].area_mm2 + _l2_share.area_mm2;
    _ldst_node_gate = _core_statics[kCoreLdst].gate_leakage_w +
                      _l2_share.gate_leakage_w;
    _ldst_node_peak = _core_statics[kCoreLdst].peak_dynamic_w +
                      _l2_share.peak_dynamic_w;

    // Per-core gate-leakage total in PowerNode::totalGateLeakage()
    // traversal order (Base, WCU, RF, EU, LDSTU incl. L2 share,
    // Undiff) — gate leakage is temperature-invariant, so this is a
    // model constant.
    double gate = 0.0;
    gate += 0.0; // Base Power
    gate += _core_statics[kCoreWcu].gate_leakage_w;
    gate += _core_statics[kCoreRf].gate_leakage_w;
    gate += _core_statics[kCoreEu].gate_leakage_w;
    gate += _ldst_node_gate;
    gate += 0.0; // Undiff. Core
    _core_gate_total = gate;
}

void
CompiledPowerModel::evaluate(const perf::ChipActivity &act,
                             Eval &out) const
{
    evaluateImpl(act, nullptr, out);
}

void
CompiledPowerModel::evaluateAt(const perf::ChipActivity &act,
                               const std::vector<double> &block_temps_k,
                               Eval &out) const
{
    evaluateImpl(act, &block_temps_k, out);
}

void
CompiledPowerModel::rescaleLeakageAt(
    const std::vector<double> &block_temps_k, Eval &ev) const
{
    leakageAt(&block_temps_k, ev);
}

void
CompiledPowerModel::evaluateImpl(const perf::ChipActivity &act,
                                 const std::vector<double> *temps,
                                 Eval &out) const
{
    GSP_ASSERT(act.cores.size() == _n_cores,
               "activity record does not match configuration");

    GSP_DCHECK(std::isfinite(act.elapsed_s),
               "non-finite interval duration ", act.elapsed_s);
    double elapsed = act.elapsed_s > 0.0 ? act.elapsed_s : 1.0;
    out.elapsed_s = elapsed;
    double cycles = act.shader_cycles > 0
                        ? static_cast<double>(act.shader_cycles)
                        : 1.0;
    double gpu_busy_frac =
        std::min(1.0, static_cast<double>(act.gpu_busy_cycles) / cycles);

    // Workspace (re)initialization: the vectors never shrink, so a
    // reused Eval performs no allocation. The per-core detail arrays
    // are fully overwritten by the loop below and only resized here.
    out.blocks.assign(_blocks.size(), BlockPower{});
    out.core_dyn.resize(static_cast<std::size_t>(_n_cores) *
                        kCoreComponents);
    out.core_sub.resize(static_cast<std::size_t>(_n_cores) *
                        kCoreComponents);

    double mem_counters[perf::mem_activity_fields];
    perf::countersToArray(act.mem, mem_counters);

    // Folded per-core L2 shares (reported under each LDSTU, but they
    // heat the L2 block).
    double l2_dyn_share =
        _l2_present
            ? perf::dotCountersRow(mem_counters,
                                   _l2_share_coeff.data(),
                                   perf::mem_activity_fields) /
                  elapsed
            : 0.0;
    double l2_gate_share = _l2_share.gate_leakage_w;

    // --- cores: four dot products each, accumulated in the exact
    // traversal order of the report tree so the flat totals are
    // bit-identical to an assembled PowerReport ---
    double cores_dyn = 0.0;    // "Cores" subtree dynamic total
    double analytic_dyn = 0.0; // short-circuit base (Eq. 1 share)
    double *cd = out.core_dyn.data();
    double counters[perf::core_activity_fields];
    for (unsigned i = 0; i < _n_cores; ++i) {
        const perf::CoreActivity &a = act.cores[i];
        double resident_frac = std::min(
            1.0, static_cast<double>(a.cycles_resident) / cycles);
        double base =
            _core_base_dyn_w * _base_power_scale * resident_frac;
        perf::countersToArray(a, counters);
        double wcu = perf::dotCountersRow(counters,
                                          _core_coeff.wcu.data(),
                                          perf::core_activity_fields) /
                     elapsed;
        double rf = perf::dotCountersRow(counters,
                                         _core_coeff.rf.data(),
                                         perf::core_activity_fields) /
                    elapsed;
        double eu = perf::dotCountersRow(counters,
                                         _core_coeff.eu.data(),
                                         perf::core_activity_fields) /
                    elapsed;
        double ldst =
            perf::dotCountersRow(counters, _core_coeff.ldst.data(),
                                 perf::core_activity_fields) /
                elapsed +
            l2_dyn_share;
        cd[kCoreBase] = base;
        cd[kCoreWcu] = wcu;
        cd[kCoreRf] = rf;
        cd[kCoreEu] = eu;
        cd[kCoreLdst] = ldst;
        cd[kCoreUndiff] = 0.0;

        // Per-core total in PowerNode traversal order.
        double core_dyn_total = 0.0;
        core_dyn_total += base;
        core_dyn_total += wcu;
        core_dyn_total += rf;
        core_dyn_total += eu;
        core_dyn_total += ldst;
        core_dyn_total += 0.0; // Undiff. Core

        // Analytic components feeding the short-circuit share
        // (second term of Eq. 1): WCU, RF, LDSTU.
        analytic_dyn += wcu;
        analytic_dyn += rf;
        analytic_dyn += ldst;

        // Block split: the core's power lands on its cluster block,
        // with the folded L2 shares moved back to the L2 block.
        BlockPower &cluster = out.blocks[coreBlock(i)];
        cluster.dynamic_w += core_dyn_total - l2_dyn_share;
        cluster.fixed_w += _core_gate_total - l2_gate_share;

        cores_dyn += core_dyn_total;
        cd += kCoreComponents;
    }

    // Cluster activation and the global work-distribution engine
    // (SectionIII-D / Fig. 4 staircase) — the report's two extra
    // children under "Cores".
    double cluster_base_total = 0.0;
    for (uint64_t busy : act.cluster_busy_cycles) {
        cluster_base_total +=
            _cluster_base_w * _base_power_scale *
            std::min(1.0, static_cast<double>(busy) / cycles);
    }
    double sched_w = _global_sched_w * _base_power_scale * gpu_busy_frac;
    out.cluster_base_w = cluster_base_total;
    out.sched_w = sched_w;
    cores_dyn += cluster_base_total;
    cores_dyn += sched_w;

    // --- uncore: one busy-fraction term + one dot product each ---
    double noc_dyn =
        _uncore_busy_w[kUncoreNoc] * gpu_busy_frac +
        perf::dotCountersRow(mem_counters,
                             _mem_coeff[kUncoreNoc].data(),
                             perf::mem_activity_fields) /
            elapsed;
    analytic_dyn += noc_dyn;
    double mc_dyn =
        _uncore_busy_w[kUncoreMc] * gpu_busy_frac +
        perf::dotCountersRow(mem_counters, _mem_coeff[kUncoreMc].data(),
                             perf::mem_activity_fields) /
            elapsed;
    analytic_dyn += mc_dyn;
    double pcie_dyn =
        _uncore_busy_w[kUncorePcie] * gpu_busy_frac +
        perf::dotCountersRow(mem_counters,
                             _mem_coeff[kUncorePcie].data(),
                             perf::mem_activity_fields) /
            elapsed;
    out.uncore_dyn = {noc_dyn, mc_dyn, pcie_dyn};

    out.short_circuit_w = _short_circuit_frac /
                          (1.0 + _short_circuit_frac) * analytic_dyn;

    // Chip totals in PowerReport traversal order.
    double dynamic = 0.0;
    dynamic += cores_dyn;
    dynamic += noc_dyn;
    dynamic += mc_dyn;
    dynamic += pcie_dyn;
    out.dynamic_w = dynamic;

    // --- remaining block splits (legacy blockPowers order) ---
    if (_l2_present) {
        BlockPower &l2 = out.blocks[_l2_block];
        l2.dynamic_w = l2_dyn_share * _n_cores;
        l2.fixed_w = l2_gate_share * _n_cores;
    }
    // Cluster activation lands in the cluster that earned it; the
    // global scheduler sits mid-die with the uncore controllers.
    for (std::size_t c = 0; c < act.cluster_busy_cycles.size(); ++c) {
        double busy = static_cast<double>(act.cluster_busy_cycles[c]);
        out.blocks[std::min<std::size_t>(c, _clusters - 1)].dynamic_w +=
            _cluster_base_w * _base_power_scale *
            std::min(1.0, busy / cycles);
    }
    BlockPower &uncore = out.blocks[_uncore_block];
    uncore.dynamic_w += sched_w;
    for (unsigned comp = 0; comp < kUncoreComponents; ++comp) {
        uncore.dynamic_w += out.uncore_dyn[comp];
        uncore.fixed_w += _uncore_statics[comp].gate_leakage_w;
    }

    // --- external DRAM: own supply and clock, so its power is a
    // fixed (feedback-free) share of its board-level block ---
    dram::DramActivity da;
    da.activates = act.mem.dram_activates;
    da.read_bursts = act.mem.dram_read_bursts;
    da.write_bursts = act.mem.dram_write_bursts;
    da.elapsed_s = elapsed;
    double total_dram_cycles = elapsed * _dram_hz * _dram_channels;
    double util = total_dram_cycles > 0.0
                      ? static_cast<double>(act.mem.dram_bus_cycles) /
                            total_dram_cycles
                      : 0.0;
    da.row_open_frac = std::min(1.0, 4.0 * util);
    out.dram_w = _dram->compute(da).total();
    out.blocks[_blocks.dramIndex()].fixed_w = out.dram_w;

    leakageAt(temps, out);

    // Reused-Eval hygiene: the workspace vectors must have been
    // (re)sized for *this* model, and the totals a trace loop
    // integrates must be finite numbers — a stale or shared Eval
    // would trip these before it poisons a waveform.
    GSP_DCHECK(out.blocks.size() == _blocks.size() &&
                   out.core_dyn.size() ==
                       std::size_t(_n_cores) * kCoreComponents &&
                   out.core_sub.size() == out.core_dyn.size(),
               "Eval workspace shape does not match model");
    GSP_DCHECK(std::isfinite(out.dynamic_w) &&
                   std::isfinite(out.static_w) &&
                   std::isfinite(out.dram_w),
               "non-finite interval power totals: dyn ", out.dynamic_w,
               " static ", out.static_w, " dram ", out.dram_w);
}

void
CompiledPowerModel::leakageAt(const std::vector<double> *temps,
                              Eval &out) const
{
    out.sub_scale.assign(_blocks.size(), 1.0);
    if (temps && !temps->empty()) {
        GSP_ASSERT(temps->size() == _blocks.size(),
                   "temperature vector does not match block set");
        for (std::size_t b = 0; b < _blocks.size(); ++b)
            out.sub_scale[b] = subLeakScaleAt((*temps)[b]);
    }
    double r_l2 = _l2_present ? out.sub_scale[_l2_block] : 1.0;
    double r_uncore = out.sub_scale[_uncore_block];
    double l2_sub_share = _l2_share.sub_leakage_w * r_l2;
    for (BlockPower &b : out.blocks)
        b.sub_leak_w = 0.0;

    // Cores, in the report tree's traversal order.
    double chip_static = 0.0; // totalStatic() traversal order
    double *cs = out.core_sub.data();
    for (unsigned i = 0; i < _n_cores; ++i) {
        // Thermal leakage feedback as a scale of the static vector.
        double rc = out.sub_scale[coreBlock(i)];
        double wcu_s = _core_statics[kCoreWcu].sub_leakage_w * rc;
        double rf_s = _core_statics[kCoreRf].sub_leakage_w * rc;
        double eu_s = _core_statics[kCoreEu].sub_leakage_w * rc;
        double ldst_s =
            _core_statics[kCoreLdst].sub_leakage_w * rc + l2_sub_share;
        double undiff_s =
            _core_statics[kCoreUndiff].sub_leakage_w * rc;
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
        core_static_total +=
            wcu_s + _core_statics[kCoreWcu].gate_leakage_w;
        core_static_total +=
            rf_s + _core_statics[kCoreRf].gate_leakage_w;
        core_static_total +=
            eu_s + _core_statics[kCoreEu].gate_leakage_w;
        core_static_total += ldst_s + _ldst_node_gate;
        core_static_total += undiff_s + 0.0;

        // The core's leakage lands on its cluster block, with the
        // folded L2 share moved back to the L2 block.
        out.blocks[coreBlock(i)].sub_leak_w +=
            core_sub_total - l2_sub_share;
        chip_static += core_static_total;
        cs += kCoreComponents;
    }

    out.uncore_sub = {
        _uncore_statics[kUncoreNoc].sub_leakage_w * r_uncore,
        _uncore_statics[kUncoreMc].sub_leakage_w * r_uncore,
        _uncore_statics[kUncorePcie].sub_leakage_w * r_uncore};
    chip_static += out.uncore_sub[kUncoreNoc] +
                   _uncore_statics[kUncoreNoc].gate_leakage_w;
    chip_static += out.uncore_sub[kUncoreMc] +
                   _uncore_statics[kUncoreMc].gate_leakage_w;
    chip_static += out.uncore_sub[kUncorePcie] +
                   _uncore_statics[kUncorePcie].gate_leakage_w;
    out.static_w = chip_static;

    if (_l2_present)
        out.blocks[_l2_block].sub_leak_w = l2_sub_share * _n_cores;
    BlockPower &uncore = out.blocks[_uncore_block];
    for (unsigned comp = 0; comp < kUncoreComponents; ++comp)
        uncore.sub_leak_w += out.uncore_sub[comp];
}

PowerReport
CompiledPowerModel::assembleReport(const Eval &ev) const
{
    PowerReport rep;
    rep.elapsed_s = ev.elapsed_s;
    rep.short_circuit_w = ev.short_circuit_w;
    rep.dram_w = ev.dram_w;
    rep.gpu.name = "GPU";
    // Every node's children are reserved up front: growing a vector
    // of PowerNodes moves whole subtrees (Cores holds every core).
    rep.gpu.children.reserve(1 + kUncoreComponents);

    PowerNode &cores = rep.gpu.child("Cores");
    cores.children.reserve(_n_cores + 2);
    const double *cd = ev.core_dyn.data();
    const double *cs = ev.core_sub.data();
    for (unsigned i = 0; i < _n_cores; ++i) {
        PowerNode &core = cores.child("Core" + std::to_string(i));
        core.children.reserve(kCoreComponents);

        PowerNode &base = core.child("Base Power");
        base.runtime_dynamic_w = cd[kCoreBase];

        PowerNode &wcu = core.child("WCU");
        const ComponentStatics &ws = _core_statics[kCoreWcu];
        wcu.area_mm2 = ws.area_mm2;
        wcu.sub_leakage_w = cs[kCoreWcu];
        wcu.gate_leakage_w = ws.gate_leakage_w;
        wcu.peak_dynamic_w = ws.peak_dynamic_w;
        wcu.runtime_dynamic_w = cd[kCoreWcu];

        PowerNode &rf = core.child("Register File");
        const ComponentStatics &rs = _core_statics[kCoreRf];
        rf.area_mm2 = rs.area_mm2;
        rf.sub_leakage_w = cs[kCoreRf];
        rf.gate_leakage_w = rs.gate_leakage_w;
        rf.peak_dynamic_w = rs.peak_dynamic_w;
        rf.runtime_dynamic_w = cd[kCoreRf];

        PowerNode &eu = core.child("Execution Units");
        const ComponentStatics &es = _core_statics[kCoreEu];
        eu.area_mm2 = es.area_mm2;
        eu.sub_leakage_w = cs[kCoreEu];
        eu.gate_leakage_w = es.gate_leakage_w;
        eu.peak_dynamic_w = es.peak_dynamic_w;
        eu.runtime_dynamic_w = cd[kCoreEu];

        PowerNode &ldst = core.child("LDSTU");
        ldst.area_mm2 = _ldst_node_area;
        ldst.sub_leakage_w = cs[kCoreLdst];
        ldst.gate_leakage_w = _ldst_node_gate;
        ldst.peak_dynamic_w = _ldst_node_peak;
        ldst.runtime_dynamic_w = cd[kCoreLdst];

        PowerNode &undiff = core.child("Undiff. Core");
        undiff.sub_leakage_w = cs[kCoreUndiff];
        undiff.area_mm2 = _core_statics[kCoreUndiff].area_mm2;

        cd += kCoreComponents;
        cs += kCoreComponents;
    }
    PowerNode &cluster_base = cores.child("Cluster Base");
    cluster_base.runtime_dynamic_w = ev.cluster_base_w;
    PowerNode &sched = cores.child("Global Scheduler");
    sched.runtime_dynamic_w = ev.sched_w;

    static const char *const uncore_names[kUncoreComponents] = {
        "NoC", "Memory Controller", "PCIe Controller"};
    for (unsigned comp = 0; comp < kUncoreComponents; ++comp) {
        PowerNode &node = rep.gpu.child(uncore_names[comp]);
        const ComponentStatics &s = _uncore_statics[comp];
        node.area_mm2 = s.area_mm2;
        node.sub_leakage_w = ev.uncore_sub[comp];
        node.gate_leakage_w = s.gate_leakage_w;
        node.peak_dynamic_w = s.peak_dynamic_w;
        node.runtime_dynamic_w = ev.uncore_dyn[comp];
    }
    return rep;
}

} // namespace power
} // namespace gpusimpow
