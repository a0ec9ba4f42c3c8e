/**
 * @file
 * Per-core power model: maps the SIMT core's architectural
 * components (WCU of Fig. 2, register file, execution units, LDSTU
 * of Fig. 3) onto circuit-layer primitives plus the empirical
 * execution-unit and base-power models of SectionIII-D. One
 * instance models one core; all cores of a chip are identical.
 */

#ifndef GPUSIMPOW_POWER_CORE_POWER_HH
#define GPUSIMPOW_POWER_CORE_POWER_HH

#include <array>
#include <memory>

#include "circuit/array.hh"
#include "circuit/interconnect.hh"
#include "circuit/logic.hh"
#include "config/gpu_config.hh"
#include "perf/activity.hh"
#include "tech/tech.hh"

namespace gpusimpow {
namespace power {

/** Static (activity-independent) properties of one component. */
struct ComponentStatics
{
    double area_mm2 = 0.0;
    double sub_leakage_w = 0.0;
    double gate_leakage_w = 0.0;
    double peak_dynamic_w = 0.0;
};

/**
 * Dense dynamic-energy coefficient rows of the four analytic core
 * components: J per counter increment, one entry per CoreActivity
 * counter in X-macro declaration order (perf::CoreCounterIndex).
 * The per-interval dynamic energy of a component is the dot product
 * of its row with the interval's counter vector — the flat form
 * power::BatchedPowerEvaluator evaluates from the flat chip power
 * model (power/chip_power.hh).
 */
struct CoreDynCoefficients
{
    std::array<double, perf::core_activity_fields> wcu{};
    std::array<double, perf::core_activity_fields> rf{};
    std::array<double, perf::core_activity_fields> eu{};
    std::array<double, perf::core_activity_fields> ldst{};
};

/** Power model of one SIMT core. */
class CorePowerModel
{
  public:
    /**
     * @param cfg full GPU configuration
     * @param t resolved technology node
     */
    CorePowerModel(const GpuConfig &cfg, const tech::TechNode &t);

    /**
     * Extract the per-counter dynamic-energy coefficients of the
     * WCU, register file, execution units, and LDSTU — the circuit
     * models' per-access energies with the fitted dynamic scales and
     * the clock-distribution overhead folded in. This is the
     * coefficient-extraction half of the flat chip power model;
     * the legacy tree path evaluated the same products term by term.
     */
    void dynCoefficients(CoreDynCoefficients &out) const;

    /** Static properties of the WCU (Fig. 2 structures). */
    ComponentStatics wcuStatics() const;
    /** Static properties of the register file. */
    ComponentStatics rfStatics() const;
    /** Static properties of the execution units. */
    ComponentStatics euStatics() const { return _eu; }
    /** Static properties of the LDSTU (without the folded L2). */
    ComponentStatics ldstStatics() const;

    /** Static properties of the whole core (sum of components). */
    ComponentStatics totals() const;

    /** Peak dynamic power of the execution units alone, W. */
    double euPeakDynamic() const;

  private:
    const GpuConfig &_cfg;
    tech::TechNode _t;
    double _fclk;
    /** V^2 scale of the empirical per-op calibration energies at the
     *  configured DVFS operating point (1.0 at the identity point). */
    double _calib_e_scale;

    // --- WCU ---
    std::unique_ptr<circuit::SramArray> _wst;
    std::unique_ptr<circuit::PriorityEncoder> _fetch_sched;
    std::unique_ptr<circuit::PriorityEncoder> _issue_sched;
    std::unique_ptr<circuit::SramArray> _icache;
    std::unique_ptr<circuit::InstructionDecoder> _decoder;
    std::unique_ptr<circuit::CamArray> _ibuffer;
    std::unique_ptr<circuit::CamArray> _scoreboard;  // null if absent
    std::unique_ptr<circuit::SramArray> _reconv_stack;

    // --- Register file ---
    std::unique_ptr<circuit::SramArray> _rf_bank;
    unsigned _rf_banks;
    std::unique_ptr<circuit::Crossbar> _rf_xbar;
    std::unique_ptr<circuit::SramArray> _collector;
    unsigned _collectors;

    // --- Execution units (areas analytic, energy empirical) ---
    ComponentStatics _eu;

    // --- LDSTU ---
    std::unique_ptr<circuit::Adder> _agu_adder;
    unsigned _agu_adders;
    std::unique_ptr<circuit::DffStorage> _coalescer;
    std::unique_ptr<circuit::SramArray> _smem_bank;
    unsigned _smem_banks;
    std::unique_ptr<circuit::Crossbar> _smem_addr_xbar;
    std::unique_ptr<circuit::Crossbar> _smem_data_xbar;
    std::unique_ptr<circuit::SramArray> _const_cache;
    std::unique_ptr<circuit::SramArray> _l1_tags;  // null without L1
};

} // namespace power
} // namespace gpusimpow

#endif // GPUSIMPOW_POWER_CORE_POWER_HH
