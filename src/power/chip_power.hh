/**
 * @file
 * The chip-level power model ("GPGPU-Pow" in the paper): assembles
 * the per-core models with the NoC, memory controllers, PCIe
 * controller, shared L2, the empirical base-power model (global
 * scheduler + cluster activation, SectionIII-D / Fig. 4), and the
 * external GDDR5 DRAM. Produces hierarchical PowerReports for any
 * activity interval, plus static-only/area summaries (Table IV).
 */

#ifndef GPUSIMPOW_POWER_CHIP_POWER_HH
#define GPUSIMPOW_POWER_CHIP_POWER_HH

#include <memory>

#include "config/gpu_config.hh"
#include "dram/gddr5.hh"
#include "perf/activity.hh"
#include "power/batched.hh"
#include "power/compiled.hh"
#include "power/core_power.hh"
#include "power/report.hh"
#include "thermal/thermal.hh"

namespace gpusimpow {
namespace power {

/** Power model of one complete GPU card. */
class GpuPowerModel
{
  public:
    explicit GpuPowerModel(const GpuConfig &cfg);

    /**
     * The flat model every result below is derived from, built once
     * at construction: its coefficient rows and static vectors, the
     * leakage rescale to block temperatures and the report assembly.
     */
    const CompiledPowerModel &compiled() const { return *_compiled; }

    /**
     * The power evaluator over this one model (a batch of one):
     * evaluateNominal() turns an activity interval into chip totals,
     * the per-thermal-block split and the component detail, with no
     * allocation once the caller's Eval and Workspace are sized.
     * evaluate() and staticReport() assemble their reports from it;
     * replays evaluate through a ReplayGroup's evaluator instead.
     */
    const BatchedPowerEvaluator &evaluator() const { return *_evaluator; }

    /**
     * Evaluate runtime power for an activity interval, assembling
     * the full hierarchical report (Table V structure) from the
     * evaluator's output — use for report output, not per-interval
     * loops.
     * @param act activity deltas over the interval
     */
    PowerReport evaluate(const perf::ChipActivity &act) const;

    /**
     * The die/board block decomposition the thermal network models:
     * one block per core cluster (cores incl. the undifferentiated
     * area), the shared L2 (when present), the lumped uncore
     * (NoC + MC + PCIe), and the off-package DRAM devices.
     */
    thermal::BlockSet thermalBlocks() const;

    /** Static-only report (idle chip, Table IV row). */
    PowerReport staticReport() const;

    /** Chip area in mm^2 (Table IV column). */
    double area() const;

    /** Chip static power in W (Table IV column). */
    double staticPower() const;

    /** Peak dynamic power of the whole chip, W. */
    double peakDynamicPower() const;

    /** The technology node in use (for tests). */
    const tech::TechNode &techNode() const { return _t; }

    /** Register power/model_builds (models constructed), so a
     *  metrics dump carries it even when nothing was built. */
    static void registerCounters();

  private:
    GpuConfig _cfg;
    tech::TechNode _t;
    /** V^2*f scale of the empirical base-power constants at the
     *  configured DVFS operating point (1.0 at the identity point). */
    double _base_power_scale = 1.0;
    std::unique_ptr<CorePowerModel> _core_model;
    std::unique_ptr<dram::Gddr5Power> _dram_power;
    std::unique_ptr<CompiledPowerModel> _compiled;
    std::unique_ptr<BatchedPowerEvaluator> _evaluator;

    // Uncore statics, computed once at construction.
    ComponentStatics _noc;
    ComponentStatics _mc;       // all channels together
    ComponentStatics _pcie;
    ComponentStatics _l2;       // all slices together
    double _noc_flit_energy_j = 0.0;
    double _noc_busy_w = 0.0;
    double _l2_access_energy_j = 0.0;
    double _mc_request_energy_j = 0.0;
    double _mc_bit_energy_j = 0.0;
    double _mc_busy_w = 0.0;
    double _pcie_active_w = 0.0;
    double _pcie_byte_energy_j = 0.0;

    // Table IV scalars, cached at construction (each needs a full
    // static-report evaluation).
    double _static_power_w = 0.0;
    double _area_mm2 = 0.0;
    double _peak_dynamic_w = 0.0;

    void buildUncore();
    thermal::BlockSet makeBlocks() const;
};

} // namespace power
} // namespace gpusimpow

#endif // GPUSIMPOW_POWER_CHIP_POWER_HH
