/**
 * @file
 * The compiled power model: the hierarchical per-component model of
 * GPGPU-Pow flattened into index-addressed arrays, in the spirit of
 * GATSPI-style flat power evaluation. Built once per (configuration,
 * process node, operating point), it holds dense coefficient rows
 * laid out against the ChipActivity X-macro counter order
 * (perf::CoreCounterIndex / perf::MemCounterIndex), the closed-form
 * busy-fraction powers and the static vectors — no string lookups,
 * no PowerNode tree.
 *
 * The model does not evaluate activity itself: the one evaluator is
 * BatchedPowerEvaluator (power/batched.hh), which fills an Eval from
 * these arrays for one or many models at once. The model owns the
 * temperature half of an evaluation (rescaleLeakageAt) and the report
 * (assembleReport). Accumulation orders replicate the tree traversal
 * orders of PowerNode::totalDynamic()/totalStatic(), so the flat
 * totals and per-block splits are bit-identical to the assembled
 * report trees (asserted by test_compiled_power against the scalar
 * reference evaluator in tests/power_tree_reference.hh).
 *
 * Thermal leakage feedback is a scale of the static vectors: each
 * component's subthreshold leakage is multiplied by its thermal
 * block's tempLeakFactor ratio, instead of walking a report subtree
 * with scaleSubLeakage().
 */

#ifndef GPUSIMPOW_POWER_COMPILED_HH
#define GPUSIMPOW_POWER_COMPILED_HH

#include <array>
#include <vector>

#include "config/gpu_config.hh"
#include "dram/gddr5.hh"
#include "perf/activity.hh"
#include "power/core_power.hh"
#include "power/report.hh"
#include "tech/tech.hh"
#include "thermal/thermal.hh"

namespace gpusimpow {
namespace power {

/** One thermal block's power split (dynamic / subthreshold leakage /
 *  fixed), the input of the thermal layer's steady solve. */
using thermal::BlockPower;

/** Per-core report components, in report child order. */
enum CoreComponent : unsigned
{
    kCoreBase = 0,   // empirical per-core base power
    kCoreWcu,        // warp control unit
    kCoreRf,         // register file
    kCoreEu,         // execution units
    kCoreLdst,       // LDSTU, with the folded L2 share
    kCoreUndiff,     // undifferentiated residual
    kCoreComponents
};

/** Chip-level components with their own report nodes. */
enum UncoreComponent : unsigned
{
    kUncoreNoc = 0,
    kUncoreMc,
    kUncorePcie,
    kUncoreComponents
};

/**
 * Everything the compiled model is built from. GpuPowerModel fills
 * this at construction; the struct keeps the two classes decoupled
 * (chip_power owns calibration and uncore fitting, compiled owns the
 * flat arrays the evaluator reads).
 */
struct CompiledModelInputs
{
    const GpuConfig *cfg = nullptr;
    const tech::TechNode *tech = nullptr;
    const CorePowerModel *core = nullptr;
    /** V^2*f scale of the empirical base powers at the operating
     *  point. */
    double base_power_scale = 1.0;
    /** Uncore component statics (buildUncore outputs). */
    ComponentStatics noc, mc, pcie, l2;
    /** Per-event uncore energies / busy powers. */
    double noc_flit_energy_j = 0.0;
    double noc_busy_w = 0.0;     // clock-tree power while busy
    double l2_access_energy_j = 0.0;
    double mc_request_energy_j = 0.0;
    double mc_bit_energy_j = 0.0;
    double mc_busy_w = 0.0;      // interface power while busy
    double pcie_active_w = 0.0;
    double pcie_byte_energy_j = 0.0;
    /** External DRAM model (owned by GpuPowerModel, outlives us). */
    const dram::Gddr5Power *dram = nullptr;
    /** Thermal block decomposition (component->block index source). */
    thermal::BlockSet blocks;
};

/**
 * Flat power model: the arrays BatchedPowerEvaluator evaluates, plus
 * the temperature half of an evaluation and the report assembly.
 */
class CompiledPowerModel
{
  public:
    explicit CompiledPowerModel(const CompiledModelInputs &in);

    /**
     * Result + reusable workspace of one interval evaluation
     * (BatchedPowerEvaluator::evaluateNominal). The vectors are sized
     * on first use and reused afterwards, so a caller evaluating
     * many intervals performs no per-interval allocation.
     */
    struct Eval
    {
        /** Per-thermal-block power split (BlockSet order); sub_leak_w
         *  is scaled to the evaluation temperatures. */
        std::vector<BlockPower> blocks;
        /** Chip runtime dynamic power, W; bit-identical to
         *  PowerReport::dynamicPower() of the assembled tree. */
        double dynamic_w = 0.0;
        /** Chip static power at the evaluation temperatures, W;
         *  bit-identical to PowerReport::staticPower(). */
        double static_w = 0.0;
        /** External DRAM power, W. */
        double dram_w = 0.0;
        /** Short-circuit share of the dynamic numbers, W. */
        double short_circuit_w = 0.0;
        /** Interval the runtime numbers integrate over, s. */
        double elapsed_s = 0.0;

        /** Per-core per-component runtime dynamic power, W
         *  (kCoreComponents entries per core; LDSTU includes the
         *  folded L2 share) — the values the report tree is
         *  assembled from. */
        std::vector<double> core_dyn;
        /** Per-core per-component subthreshold leakage at the
         *  evaluation temperatures, W. */
        std::vector<double> core_sub;
        /** Uncore component runtime dynamics, W (UncoreComponent
         *  order). */
        std::array<double, kUncoreComponents> uncore_dyn{};
        /** Uncore component subthreshold leakage at the evaluation
         *  temperatures, W. */
        std::array<double, kUncoreComponents> uncore_sub{};
        /** Cluster-activation power total (Cluster Base node), W. */
        double cluster_base_w = 0.0;
        /** Global work-distribution engine power, W. */
        double sched_w = 0.0;

        /** Block-temperature scale factors used (scratch). */
        std::vector<double> sub_scale;

        /** Card power (chip static + dynamic, then DRAM), W;
         *  bit-identical to PowerReport::totalPower() + dram_w of
         *  the assembled tree. */
        double cardW() const { return (static_w + dynamic_w) + dram_w; }
    };

    /**
     * Re-evaluate only the temperature-dependent half of an
     * evaluation — the subthreshold leakage columns, their block
     * splits and the static total — at per-block temperatures
     * (BlockSet order; empty means nominal everywhere). Each
     * component's leakage is scaled from the nominal temperature to
     * its block's: core subtrees follow their cluster block, the
     * folded L2 share inside each LDSTU the L2 block, NoC/MC/PCIe the
     * uncore block. ev must hold a nominal evaluation of this model
     * (BatchedPowerEvaluator::evaluateNominal); no pass over the
     * activity is needed.
     */
    void rescaleLeakageAt(const std::vector<double> &block_temps_k,
                          Eval &ev) const;

    /**
     * Assemble the full hierarchical report (Table V structure) from
     * a compiled evaluation — the on-demand tree for report output.
     */
    PowerReport assembleReport(const Eval &ev) const;

    /** The thermal block decomposition the block splits target. */
    const thermal::BlockSet &blocks() const { return _blocks; }

    /** Thermal block index of a core (its cluster). */
    std::size_t coreBlock(unsigned core) const
    {
        return core / _cores_per_cluster;
    }

    /**
     * Subthreshold-leakage multiplier between the nominal junction
     * temperature and temp_k (1.0 at the nominal temperature).
     */
    double subLeakScaleAt(double temp_k) const
    {
        return tech::tempLeakFactorAt(temp_k) / _nominal_leak_factor;
    }

    /** tech::tempLeakFactorAt() of the nominal junction temperature:
     *  the divisor of subLeakScaleAt(), which a thermal::SteadyLane
     *  carries to apply the same law. */
    double nominalLeakFactor() const { return _nominal_leak_factor; }

  private:
    /** The evaluator (power/batched.hh) reads the coefficient rows
     *  and static vectors directly. */
    friend class BatchedPowerEvaluator;
    /** The tests' scalar reference evaluator reads them too. */
    friend struct PowerReference;

    // --- configuration scalars ---
    unsigned _n_cores;
    unsigned _clusters;
    unsigned _cores_per_cluster;
    bool _l2_present;
    double _base_power_scale;
    double _core_base_dyn_w;
    double _cluster_base_w;
    double _global_sched_w;
    double _short_circuit_frac;
    double _nominal_leak_factor;
    double _dram_hz;
    unsigned _dram_channels;

    // --- dynamic-energy coefficient rows ---
    CoreDynCoefficients _core_coeff;
    /** NoC / MC / PCIe rows over the uncore counters. */
    std::array<std::array<double, perf::mem_activity_fields>,
               kUncoreComponents> _mem_coeff{};
    /** Folded per-core L2 share row over the uncore counters. */
    std::array<double, perf::mem_activity_fields> _l2_share_coeff{};
    /** Busy-fraction-scaled uncore powers (UncoreComponent order). */
    std::array<double, kUncoreComponents> _uncore_busy_w{};

    // --- static vectors (nominal temperature) ---
    /** Per-core component statics (kCoreComponents entries; LDSTU
     *  without the L2 share, which has its own block). */
    std::array<ComponentStatics, kCoreComponents> _core_statics{};
    /** Folded per-core L2 share statics. */
    ComponentStatics _l2_share;
    /** Uncore component statics (UncoreComponent order). */
    std::array<ComponentStatics, kUncoreComponents> _uncore_statics{};
    /** LDSTU report-node constants with the folded L2 share. */
    double _ldst_node_area = 0.0;
    double _ldst_node_gate = 0.0;
    double _ldst_node_peak = 0.0;
    /** Per-core gate-leakage total (constant under temperature). */
    double _core_gate_total = 0.0;

    // --- component -> thermal block map ---
    thermal::BlockSet _blocks;
    std::size_t _l2_block = 0;
    std::size_t _uncore_block = 0;

    const dram::Gddr5Power *_dram;

    /** The static half of an evaluation at block_temps_k (nominal
     *  when null or empty): sub_scale, core_sub, uncore_sub, static_w
     *  and every block's sub_leak_w and fixed_w — the DRAM board
     *  block's fixed share is out.dram_w. Sizes out's block and
     *  core_sub vectors; reads nothing else of out. */
    void leakageAt(const std::vector<double> *block_temps_k,
                   Eval &out) const;
};

} // namespace power
} // namespace gpusimpow

#endif // GPUSIMPOW_POWER_COMPILED_HH
