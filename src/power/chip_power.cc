#include "power/chip_power.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "circuit/array.hh"
#include "circuit/interconnect.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "power/batched.hh"
#include "tech/tech.hh"

namespace gpusimpow {
namespace power {

namespace {

/**
 * Uncore fitted coefficients, calibrated against the GT240 top half
 * of Table V (NoC 1.484/1.229 W, MC 0.497/1.753 W, PCIe
 * 0.539/0.992 W static/dynamic at blackscholes).
 */
// NoC: busy-clock capacitance per port-bit (crossbar wiring, buffer
// flops, repeaters), and leakage scaling over the router model.
constexpr double noc_clock_f_per_port_bit = 0.42e-12;
constexpr double noc_leak_scale = 72.0;
constexpr double noc_flit_scale = 2.0;
// MC: per-channel static/busy power per interface bit, per-request
// scheduling energy, and per-transferred-bit PHY energy.
constexpr double mc_static_w_per_bit = 0.0036;
constexpr double mc_busy_w_per_bit = 0.0075;
constexpr double mc_request_nj = 0.85;
constexpr double mc_bit_pj = 5.0;
// PCIe Gen2 controller+PHY: per-lane leakage and L0 link-active
// power; per-byte transfer energy.
constexpr double pcie_static_w_per_lane = 0.0337;
constexpr double pcie_active_w_per_lane = 0.0620;
constexpr double pcie_pj_per_byte = 80.0;
// L2 dynamic scaling (tag + data + control per access).
constexpr double l2_dyn_scale = 2.0;
constexpr double l2_leak_scale = 1.5;

obs::Counter &
modelBuilds()
{
    static obs::Counter &c = obs::Registry::instance().counter(
        "power/model_builds", "GpuPowerModels constructed");
    return c;
}

} // namespace

void
GpuPowerModel::registerCounters()
{
    modelBuilds();
}

GpuPowerModel::GpuPowerModel(const GpuConfig &cfg)
    : _t(tech::TechNode::make(cfg.tech.node_nm, cfg.tech.vdd,
                              cfg.tech.temperature,
                              cfg.tech.vdd_scale)),
      _n_cores(cfg.numCores()), _clusters(cfg.clusters),
      _cores_per_cluster(cfg.cores_per_cluster),
      _l2_present(cfg.l2.present),
      // Empirically measured base *powers* (Section III-D) were
      // fitted at the nominal operating point; Eq. 1 scales them with
      // V^2*f.
      _base_power_scale(cfg.tech.vdd_scale * cfg.tech.vdd_scale *
                        cfg.clocks.freq_scale),
      _core_base_dyn_w(cfg.calib.core_base_dyn_w),
      _cluster_base_w(cfg.calib.cluster_base_w),
      _global_sched_w(cfg.calib.global_sched_w),
      _short_circuit_frac(cfg.calib.short_circuit_frac),
      _nominal_leak_factor(tech::tempLeakFactorAt(_t.temperature)),
      _dram_hz(cfg.clocks.dram_hz), _dram_channels(cfg.dram.channels),
      _dram(cfg.dram, cfg.clocks.dram_hz)
{
    CorePowerModel core(cfg, _t);
    double l2_area_mm2 = buildUncore(cfg);
    _blocks = makeBlocks(cfg, core, l2_area_mm2);
    _l2_block = _l2_present ? _blocks.l2Index() : 0;
    _uncore_block = _blocks.uncoreIndex();

    // Flatten the core model into the per-core rows and statics;
    // every result below is derived from them through the evaluator.
    {
        GSP_TRACE_SPAN("power/compile");
        core.dynCoefficients(_core_coeff);
        _core_statics[kCoreWcu] = core.wcuStatics();
        _core_statics[kCoreRf] = core.rfStatics();
        _core_statics[kCoreEu] = core.euStatics();
        _core_statics[kCoreLdst] = core.ldstStatics();
        ComponentStatics &undiff = _core_statics[kCoreUndiff];
        // The lumped residual was measured at nominal supply; leakage
        // power tracks roughly V^2 over DVFS-sized supply excursions.
        undiff.sub_leakage_w = cfg.calib.undiff_core_static_w *
                               (cfg.tech.vdd_scale * cfg.tech.vdd_scale);
        undiff.area_mm2 = cfg.calib.undiff_core_area_mm2;

        // LDSTU report-node constants with the folded L2 share.
        _ldst_node_area =
            _core_statics[kCoreLdst].area_mm2 + _l2_share.area_mm2;
        _ldst_node_gate = _core_statics[kCoreLdst].gate_leakage_w +
                          _l2_share.gate_leakage_w;
        _ldst_node_peak = _core_statics[kCoreLdst].peak_dynamic_w +
                          _l2_share.peak_dynamic_w;

        // Per-core gate-leakage total in PowerNode::totalGateLeakage()
        // traversal order (Base, WCU, RF, EU, LDSTU incl. L2 share,
        // Undiff) — gate leakage is temperature-invariant, so this is
        // a model constant.
        double gate = 0.0;
        gate += 0.0; // Base Power
        gate += _core_statics[kCoreWcu].gate_leakage_w;
        gate += _core_statics[kCoreRf].gate_leakage_w;
        gate += _core_statics[kCoreEu].gate_leakage_w;
        gate += _ldst_node_gate;
        gate += 0.0; // Undiff. Core
        _core_gate_total = gate;
    }
    _evaluator = std::make_unique<BatchedPowerEvaluator>(
        std::vector<const GpuPowerModel *>{this});

    PowerReport stat = staticReport();
    _static_power_w = stat.staticPower();
    _area_mm2 = stat.area();
    double peak = stat.gpu.totalPeak();
    // Base power at full occupancy.
    peak += (cfg.calib.global_sched_w +
             cfg.calib.cluster_base_w * cfg.clusters +
             cfg.calib.core_base_dyn_w * cfg.numCores()) *
            _base_power_scale;
    _peak_dynamic_w = peak;
    modelBuilds().add(1);
}

GpuPowerModel::~GpuPowerModel() = default;

double
GpuPowerModel::buildUncore(const GpuConfig &cfg)
{
    using M = perf::MemCounterIndex;

    // --- NoC: cores + memory partitions on one crossbar ---
    ComponentStatics &noc = _uncore_statics[kUncoreNoc];
    unsigned ports = cfg.numCores() + cfg.dram.channels;
    circuit::Router router(ports, cfg.noc.link_bits, 8,
                           2.0e-3 /* ~2 mm links */, _t);
    noc.area_mm2 = router.area() * 1e6 * 2.0;  // request + reply nets
    noc.sub_leakage_w = router.leakage() * noc_leak_scale;
    noc.gate_leakage_w = 0.1 * noc.sub_leakage_w;
    double noc_flit_energy_j =
        (router.flitEnergy() + router.linkEnergy()) * noc_flit_scale;
    _mem_coeff[kUncoreNoc][M::noc_flits] = noc_flit_energy_j;
    double noc_clock_cap = noc_clock_f_per_port_bit *
                           static_cast<double>(ports) *
                           cfg.noc.link_bits;
    // Clock-tree power while busy.
    double noc_busy_w =
        noc_clock_cap * _t.vdd * _t.vdd * cfg.clocks.uncoreHz();
    _uncore_busy_w[kUncoreNoc] = noc_busy_w;
    noc.peak_dynamic_w =
        noc_busy_w + noc_flit_energy_j * cfg.clocks.uncoreHz();

    // --- Memory controllers (all channels together) ---
    ComponentStatics &mc = _uncore_statics[kUncoreMc];
    double if_bits = static_cast<double>(cfg.dram.channels) *
                     cfg.dram.channel_bits;
    mc.sub_leakage_w = mc_static_w_per_bit * if_bits;
    mc.gate_leakage_w = 0.08 * mc.sub_leakage_w;
    mc.area_mm2 = 0.08 * if_bits *
                  (_t.feature_m / 40e-9) * (_t.feature_m / 40e-9);
    _mem_coeff[kUncoreMc][M::mc_requests] = mc_request_nj * 1e-9;
    double mc_bit_energy_j = mc_bit_pj * 1e-12;
    double bits_per_burst = static_cast<double>(cfg.dram.burst_length) *
                            cfg.dram.channel_bits;
    _mem_coeff[kUncoreMc][M::dram_read_bursts] =
        bits_per_burst * mc_bit_energy_j;
    _mem_coeff[kUncoreMc][M::dram_write_bursts] =
        bits_per_burst * mc_bit_energy_j;
    // Interface power while busy.
    double mc_busy_w = mc_busy_w_per_bit * if_bits;
    _uncore_busy_w[kUncoreMc] = mc_busy_w;
    mc.peak_dynamic_w =
        mc_busy_w + mc_bit_energy_j * if_bits * 4.0 * cfg.clocks.dram_hz;

    // --- PCIe controller ---
    ComponentStatics &pcie = _uncore_statics[kUncorePcie];
    pcie.sub_leakage_w = pcie_static_w_per_lane * cfg.pcie.lanes;
    pcie.gate_leakage_w = 0.0;
    pcie.area_mm2 = 0.45 * cfg.pcie.lanes / 16.0;
    double pcie_active_w = pcie_active_w_per_lane * cfg.pcie.lanes;
    double pcie_byte_energy_j = pcie_pj_per_byte * 1e-12;
    _mem_coeff[kUncorePcie][M::pcie_bytes] = pcie_byte_energy_j;
    _uncore_busy_w[kUncorePcie] = pcie_active_w;
    pcie.peak_dynamic_w =
        pcie_active_w + pcie_byte_energy_j * cfg.pcie.lanes *
                            cfg.pcie.gbps_per_lane * 1e9 / 10.0;

    // --- Shared L2 (absent on Tesla-class chips) ---
    if (!_l2_present)
        return 0.0;
    unsigned slice_bytes = cfg.l2.total_bytes / cfg.l2.slices;
    circuit::SramParams p;
    p.entries = slice_bytes / cfg.l2.line_bytes;
    p.bits_per_entry = cfg.l2.line_bytes * 8;
    p.banks = 4;
    p.device = tech::DeviceType::LSTP;
    circuit::SramArray slice(p, _t);
    double l2_area_mm2 = slice.area() * 1e6 * cfg.l2.slices;
    double l2_access_energy_j = slice.readEnergy() * l2_dyn_scale;
    // The paper's LDSTU "encapsulates ... the L2 caches"; the shared
    // L2 is spread across the cores' LDSTUs in the report but keeps
    // its own thermal block, so its per-core share stays a separate
    // component of the flat model.
    _l2_share.area_mm2 = l2_area_mm2 / _n_cores;
    _l2_share.sub_leakage_w =
        slice.numbers().leakage_w * cfg.l2.slices * l2_leak_scale /
        _n_cores;
    _l2_share.gate_leakage_w =
        slice.numbers().gate_leak_w * cfg.l2.slices * l2_leak_scale /
        _n_cores;
    _l2_share.peak_dynamic_w = l2_access_energy_j *
                               cfg.clocks.uncoreHz() * cfg.l2.slices /
                               4.0 / _n_cores;
    _l2_share_coeff[M::l2_reads] = l2_access_energy_j / _n_cores;
    _l2_share_coeff[M::l2_writes] = l2_access_energy_j / _n_cores;
    return l2_area_mm2;
}

PowerReport
GpuPowerModel::evaluate(const perf::ChipActivity &act) const
{
    Eval ev;
    BatchedPowerEvaluator::Workspace ws;
    _evaluator->evaluateNominal(act, ws, {&ev, 1});
    return assembleReport(ev);
}

thermal::BlockSet
GpuPowerModel::makeBlocks(const GpuConfig &cfg, const CorePowerModel &core,
                          double l2_area_mm2) const
{
    thermal::BlockSet set;
    set.num_clusters = cfg.clusters;
    set.has_l2 = cfg.l2.present;
    // Physical core footprint: the analytic components plus the
    // undifferentiated residual; the shared L2 gets its own block,
    // so the per-core L2 share folded into the report is excluded.
    double core_area = core.totals().area_mm2 +
                       cfg.calib.undiff_core_area_mm2;
    for (unsigned c = 0; c < cfg.clusters; ++c) {
        set.names.push_back("cluster" + std::to_string(c));
        set.area_mm2.push_back(core_area * cfg.cores_per_cluster);
    }
    if (set.has_l2) {
        set.names.push_back("l2");
        set.area_mm2.push_back(l2_area_mm2);
    }
    set.names.push_back("uncore");
    set.area_mm2.push_back(_uncore_statics[kUncoreNoc].area_mm2 +
                           _uncore_statics[kUncoreMc].area_mm2 +
                           _uncore_statics[kUncorePcie].area_mm2);
    set.names.push_back("dram");
    set.area_mm2.push_back(0.0); // off-package, board-level
    return set;
}

PowerReport
GpuPowerModel::staticReport() const
{
    perf::ChipActivity idle;
    idle.cores.resize(_n_cores);
    idle.cluster_busy_cycles.assign(_clusters, 0);
    idle.shader_cycles = 1;
    idle.elapsed_s = 1.0;
    return evaluate(idle);
}

void
GpuPowerModel::rescaleLeakageAt(
    const std::vector<double> &block_temps_k, Eval &ev) const
{
    leakageAt(&block_temps_k, ev);
}

void
GpuPowerModel::leakageAt(const std::vector<double> *temps,
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
GpuPowerModel::assembleReport(const Eval &ev) const
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
