#include "power/compiled.hh"

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
CompiledPowerModel::rescaleLeakageAt(
    const std::vector<double> &block_temps_k, Eval &ev) const
{
    leakageAt(&block_temps_k, ev);
}

void
CompiledPowerModel::leakageAt(const std::vector<double> *temps,
                              Eval &out) const
{
    out.blocks.resize(_blocks.size());
    out.core_sub.resize(static_cast<std::size_t>(_n_cores) *
                        kCoreComponents);
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
    double l2_gate_share = _l2_share.gate_leakage_w;
    for (BlockPower &b : out.blocks) {
        b.sub_leak_w = 0.0;
        b.fixed_w = 0.0;
    }

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
        // folded L2 shares moved back to the L2 block.
        BlockPower &cluster = out.blocks[coreBlock(i)];
        cluster.sub_leak_w += core_sub_total - l2_sub_share;
        cluster.fixed_w += _core_gate_total - l2_gate_share;
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

    if (_l2_present) {
        BlockPower &l2 = out.blocks[_l2_block];
        l2.sub_leak_w = l2_sub_share * _n_cores;
        l2.fixed_w = l2_gate_share * _n_cores;
    }
    BlockPower &uncore = out.blocks[_uncore_block];
    for (unsigned comp = 0; comp < kUncoreComponents; ++comp) {
        uncore.sub_leak_w += out.uncore_sub[comp];
        uncore.fixed_w += _uncore_statics[comp].gate_leakage_w;
    }
    // The external DRAM runs from its own supply and clock, so its
    // power is a fixed (feedback-free) share of its board block.
    out.blocks[_blocks.dramIndex()].fixed_w = out.dram_w;
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
