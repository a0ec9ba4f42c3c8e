#include "power/chip_power.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "circuit/array.hh"
#include "circuit/interconnect.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
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
    : _cfg(cfg),
      _t(tech::TechNode::make(cfg.tech.node_nm, cfg.tech.vdd,
                              cfg.tech.temperature,
                              cfg.tech.vdd_scale))
{
    // Empirically measured base *powers* (Section III-D) were fitted
    // at the nominal operating point; Eq. 1 scales them with V^2*f.
    double vs = _cfg.tech.vdd_scale;
    _base_power_scale = vs * vs * _cfg.clocks.freq_scale;
    _core_model = std::make_unique<CorePowerModel>(_cfg, _t);
    _dram_power =
        std::make_unique<dram::Gddr5Power>(_cfg.dram, _cfg.clocks.dram_hz);
    buildUncore();

    // Compile the hierarchical model into the flat arrays; every
    // result below is derived from them through the evaluator.
    CompiledModelInputs in;
    in.cfg = &_cfg;
    in.tech = &_t;
    in.core = _core_model.get();
    in.base_power_scale = _base_power_scale;
    in.noc = _noc;
    in.mc = _mc;
    in.pcie = _pcie;
    in.l2 = _l2;
    in.noc_flit_energy_j = _noc_flit_energy_j;
    in.noc_busy_w = _noc_busy_w;
    in.l2_access_energy_j = _l2_access_energy_j;
    in.mc_request_energy_j = _mc_request_energy_j;
    in.mc_bit_energy_j = _mc_bit_energy_j;
    in.mc_busy_w = _mc_busy_w;
    in.pcie_active_w = _pcie_active_w;
    in.pcie_byte_energy_j = _pcie_byte_energy_j;
    in.dram = _dram_power.get();
    in.blocks = makeBlocks();
    _compiled = std::make_unique<CompiledPowerModel>(in);
    _evaluator = std::make_unique<BatchedPowerEvaluator>(
        std::vector<const CompiledPowerModel *>{_compiled.get()});

    PowerReport stat = staticReport();
    _static_power_w = stat.staticPower();
    _area_mm2 = stat.area();
    double peak = stat.gpu.totalPeak();
    // Base power at full occupancy.
    peak += (_cfg.calib.global_sched_w +
             _cfg.calib.cluster_base_w * _cfg.clusters +
             _cfg.calib.core_base_dyn_w * _cfg.numCores()) *
            _base_power_scale;
    _peak_dynamic_w = peak;
    modelBuilds().add(1);
}

void
GpuPowerModel::buildUncore()
{
    // --- NoC: cores + memory partitions on one crossbar ---
    unsigned ports = _cfg.numCores() + _cfg.dram.channels;
    circuit::Router router(ports, _cfg.noc.link_bits, 8,
                           2.0e-3 /* ~2 mm links */, _t);
    _noc.area_mm2 = router.area() * 1e6 * 2.0;  // request + reply nets
    _noc.sub_leakage_w = router.leakage() * noc_leak_scale;
    _noc.gate_leakage_w = 0.1 * _noc.sub_leakage_w;
    _noc_flit_energy_j =
        (router.flitEnergy() + router.linkEnergy()) * noc_flit_scale;
    double noc_clock_cap = noc_clock_f_per_port_bit *
                           static_cast<double>(ports) *
                           _cfg.noc.link_bits;
    _noc_busy_w =
        noc_clock_cap * _t.vdd * _t.vdd * _cfg.clocks.uncoreHz();
    _noc.peak_dynamic_w =
        _noc_busy_w + _noc_flit_energy_j * _cfg.clocks.uncoreHz();

    // --- Memory controllers ---
    double if_bits = static_cast<double>(_cfg.dram.channels) *
                     _cfg.dram.channel_bits;
    _mc.sub_leakage_w = mc_static_w_per_bit * if_bits;
    _mc.gate_leakage_w = 0.08 * _mc.sub_leakage_w;
    _mc.area_mm2 = 0.08 * if_bits *
                   (_t.feature_m / 40e-9) * (_t.feature_m / 40e-9);
    _mc_request_energy_j = mc_request_nj * 1e-9;
    _mc_bit_energy_j = mc_bit_pj * 1e-12;
    _mc_busy_w = mc_busy_w_per_bit * if_bits;
    _mc.peak_dynamic_w =
        _mc_busy_w +
        _mc_bit_energy_j * if_bits * 4.0 * _cfg.clocks.dram_hz;

    // --- PCIe controller ---
    _pcie.sub_leakage_w = pcie_static_w_per_lane * _cfg.pcie.lanes;
    _pcie.gate_leakage_w = 0.0;
    _pcie.area_mm2 = 0.45 * _cfg.pcie.lanes / 16.0;
    _pcie_active_w = pcie_active_w_per_lane * _cfg.pcie.lanes;
    _pcie_byte_energy_j = pcie_pj_per_byte * 1e-12;
    _pcie.peak_dynamic_w =
        _pcie_active_w + _pcie_byte_energy_j * _cfg.pcie.lanes *
                             _cfg.pcie.gbps_per_lane * 1e9 / 10.0;

    // --- Shared L2 (absent on Tesla-class chips) ---
    if (_cfg.l2.present) {
        unsigned slice_bytes = _cfg.l2.total_bytes / _cfg.l2.slices;
        circuit::SramParams p;
        p.entries = slice_bytes / _cfg.l2.line_bytes;
        p.bits_per_entry = _cfg.l2.line_bytes * 8;
        p.banks = 4;
        p.device = tech::DeviceType::LSTP;
        circuit::SramArray slice(p, _t);
        _l2.area_mm2 = slice.area() * 1e6 * _cfg.l2.slices;
        _l2.sub_leakage_w =
            slice.numbers().leakage_w * _cfg.l2.slices * l2_leak_scale;
        _l2.gate_leakage_w =
            slice.numbers().gate_leak_w * _cfg.l2.slices * l2_leak_scale;
        _l2_access_energy_j = slice.readEnergy() * l2_dyn_scale;
        _l2.peak_dynamic_w = _l2_access_energy_j *
                             _cfg.clocks.uncoreHz() * _cfg.l2.slices /
                             4.0;
    }
}

PowerReport
GpuPowerModel::evaluate(const perf::ChipActivity &act) const
{
    CompiledPowerModel::Eval ev;
    BatchedPowerEvaluator::Workspace ws;
    _evaluator->evaluateNominal(act, ws, {&ev, 1});
    return _compiled->assembleReport(ev);
}

thermal::BlockSet
GpuPowerModel::makeBlocks() const
{
    thermal::BlockSet set;
    set.num_clusters = _cfg.clusters;
    set.has_l2 = _cfg.l2.present;
    // Physical core footprint: the analytic components plus the
    // undifferentiated residual; the shared L2 gets its own block,
    // so the per-core L2 share folded into the report is excluded.
    double core_area = _core_model->totals().area_mm2 +
                       _cfg.calib.undiff_core_area_mm2;
    for (unsigned c = 0; c < _cfg.clusters; ++c) {
        set.names.push_back("cluster" + std::to_string(c));
        set.area_mm2.push_back(core_area * _cfg.cores_per_cluster);
    }
    if (set.has_l2) {
        set.names.push_back("l2");
        set.area_mm2.push_back(_l2.area_mm2);
    }
    set.names.push_back("uncore");
    set.area_mm2.push_back(_noc.area_mm2 + _mc.area_mm2 +
                           _pcie.area_mm2);
    set.names.push_back("dram");
    set.area_mm2.push_back(0.0); // off-package, board-level
    return set;
}

thermal::BlockSet
GpuPowerModel::thermalBlocks() const
{
    return _compiled->blocks();
}

PowerReport
GpuPowerModel::staticReport() const
{
    perf::ChipActivity idle;
    idle.cores.resize(_cfg.numCores());
    idle.cluster_busy_cycles.assign(_cfg.clusters, 0);
    idle.shader_cycles = 1;
    idle.elapsed_s = 1.0;
    return evaluate(idle);
}

double
GpuPowerModel::area() const
{
    return _area_mm2;
}

double
GpuPowerModel::staticPower() const
{
    return _static_power_w;
}

double
GpuPowerModel::peakDynamicPower() const
{
    return _peak_dynamic_w;
}

} // namespace power
} // namespace gpusimpow
