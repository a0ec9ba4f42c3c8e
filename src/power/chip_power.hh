/**
 * @file
 * The chip-level power model ("GPGPU-Pow" in the paper): assembles
 * the per-core models with the NoC, memory controllers, PCIe
 * controller, shared L2, the empirical base-power model (global
 * scheduler + cluster activation, SectionIII-D / Fig. 4), and the
 * external GDDR5 DRAM. Produces hierarchical PowerReports for any
 * activity interval, plus static-only/area summaries (Table IV).
 *
 * Construction fits the components and flattens them into
 * index-addressed arrays, in the spirit of GATSPI-style flat power
 * evaluation: dense coefficient rows laid out against the
 * ChipActivity X-macro counter order (perf::CoreCounterIndex /
 * perf::MemCounterIndex), the closed-form busy-fraction powers and
 * the static vectors — no string lookups, no PowerNode tree.
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

#ifndef GPUSIMPOW_POWER_CHIP_POWER_HH
#define GPUSIMPOW_POWER_CHIP_POWER_HH

#include <array>
#include <memory>
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

class BatchedPowerEvaluator;

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
 * Power model of one complete GPU card. Its evaluator points at the
 * model itself, so a model is neither copied nor moved: share it
 * through a pointer.
 */
class GpuPowerModel
{
  public:
    explicit GpuPowerModel(const GpuConfig &cfg);
    ~GpuPowerModel();
    GpuPowerModel(const GpuPowerModel &) = delete;
    GpuPowerModel &operator=(const GpuPowerModel &) = delete;

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
     * The power evaluator over this one model (a batch of one):
     * evaluateNominal() turns an activity interval into chip totals,
     * the per-thermal-block split and the component detail, with no
     * allocation once the caller's Eval and Workspace are sized.
     * evaluate() and staticReport() assemble their reports from it,
     * and the throttling governor measures each clock through it
     * (Simulator::measure). Replays evaluate through a ReplayGroup's
     * evaluator over all of the group's models instead; a batch of
     * one gives the same bits as either.
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
     * an evaluation — the on-demand tree for report output.
     */
    PowerReport assembleReport(const Eval &ev) const;

    /**
     * The die/board block decomposition the thermal network models
     * and the block splits target: one block per core cluster (cores
     * incl. the undifferentiated area), the shared L2 (when present),
     * the lumped uncore (NoC + MC + PCIe), and the off-package DRAM
     * devices.
     */
    const thermal::BlockSet &thermalBlocks() const { return _blocks; }

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

    /** Static-only report (idle chip, Table IV row). */
    PowerReport staticReport() const;

    /** Chip area in mm^2 (Table IV column). */
    double area() const { return _area_mm2; }

    /** Chip static power in W (Table IV column). */
    double staticPower() const { return _static_power_w; }

    /** Peak dynamic power of the whole chip, W. */
    double peakDynamicPower() const { return _peak_dynamic_w; }

    /** The technology node in use (for tests). */
    const tech::TechNode &techNode() const { return _t; }

    /** Register power/model_builds (models constructed), so a
     *  metrics dump carries it even when nothing was built. */
    static void registerCounters();

  private:
    /** The evaluator (power/batched.hh) reads the coefficient rows
     *  and static vectors directly. */
    friend class BatchedPowerEvaluator;
    /** The tests' scalar reference evaluator reads them too. */
    friend struct PowerReference;

    tech::TechNode _t;

    // --- configuration scalars ---
    unsigned _n_cores;
    unsigned _clusters;
    unsigned _cores_per_cluster;
    bool _l2_present;
    /** V^2*f scale of the empirical base-power constants at the
     *  configured DVFS operating point (1.0 at the identity point). */
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

    dram::Gddr5Power _dram;
    std::unique_ptr<BatchedPowerEvaluator> _evaluator;

    // Table IV scalars, cached at construction (each needs a full
    // static-report evaluation).
    double _static_power_w = 0.0;
    double _area_mm2 = 0.0;
    double _peak_dynamic_w = 0.0;

    /** Fit the NoC, memory controllers, PCIe controller and shared
     *  L2 into their statics, energy rows and busy powers; returns
     *  the area of the whole L2 (0 without one), mm^2. */
    double buildUncore(const GpuConfig &cfg);
    /** The thermal block decomposition (thermalBlocks()). */
    thermal::BlockSet makeBlocks(const GpuConfig &cfg,
                                 const CorePowerModel &core,
                                 double l2_area_mm2) const;

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

#endif // GPUSIMPOW_POWER_CHIP_POWER_HH
