/**
 * @file
 * The power evaluator: many activity intervals x many power models
 * in one pass, in the GATSPI spirit of turning per-node power
 * evaluation into dense array kernels. It computes every power number
 * the simulator reports — traced interval rows, whole-kernel
 * evaluations, single runs and governor probes (a batch of one).
 *
 * The evaluator packs the intervals into one SoA activity matrix
 * (perf::ActivityMatrix, countersToRow layout), compresses each
 * component's coefficient rows across variants into sparse four-lane
 * quads, and computes the whole interval x variant product with the
 * runtime-dispatched SIMD kernel (perf::dotCountersSparseQuadKernel)
 * before one per-(interval, variant) scalar assembly. That assembly
 * accumulates in the traversal order of the report tree
 * (PowerNode::totalDynamic()), so the flat totals are bit-identical
 * to the assembled PowerReport. The tests hold the scalar
 * per-interval evaluator this one replaced
 * (tests/power_tree_reference.hh) as its oracle.
 */

#ifndef GPUSIMPOW_POWER_BATCHED_HH
#define GPUSIMPOW_POWER_BATCHED_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "perf/activity.hh"
#include "power/chip_power.hh"

namespace gpusimpow {
namespace power {

/**
 * One variant's per-interval outputs over a kernel's sample list —
 * exactly the values the trace loops consume, split the same way as
 * GpuPowerModel::Eval.
 */
struct BatchedKernelPower
{
    /** Intervals evaluated. */
    std::size_t n_intervals = 0;
    /** Thermal blocks per interval row (0 unless want_blocks). */
    std::size_t n_blocks = 0;
    /** Chip runtime dynamic power per interval, W (Eval::dynamic_w
     *  of that interval). */
    std::vector<double> dynamic_w;
    /** External DRAM power per interval, W (Eval::dram_w). */
    std::vector<double> dram_w;
    /** Per-block dynamic power, [interval * n_blocks + block] —
     *  Eval::blocks[b].dynamic_w; filled only when want_blocks. */
    std::vector<double> block_dynamic_w;
    /** Activity-independent per-block statics at the nominal
     *  junction temperature: sub_leak_w and fixed_w of Eval::blocks,
     *  identical for every interval. The DRAM board block's
     *  per-interval fixed share lives in dram_w instead and is zero
     *  here. */
    std::vector<BlockPower> static_blocks;
};

/**
 * The evaluator over a fixed set of power-model variants.
 * Construction stacks the variants' coefficient rows and takes their
 * nominal-temperature block statics; evaluate() turns a span of
 * activity records into per-variant BatchedKernelPower rows, and
 * evaluateNominal() one record into one full Eval per variant.
 *
 * All variants must share the activity shape (core count) — in the
 * engine they share a full timing fingerprint, which implies it.
 * The evaluator is immutable after construction; all scratch lives
 * in the caller's Workspace.
 */
class BatchedPowerEvaluator
{
  public:
    /** Reusable scratch: one instance per replay group amortizes
     *  the tile buffers across every kernel the group replays. */
    struct Workspace
    {
        /** Packed activity rows of the current tile. */
        perf::ActivityMatrix acts;
        /** Core-row product tile, [(interval, core) x (component,
         *  lane)] — already divided by the interval's elapsed time. */
        std::vector<double> core_prod;
        /** Mem-row product tile, [interval x (component, lane)],
         *  likewise pre-divided. */
        std::vector<double> mem_prod;
        /** Per-core resident fractions of the current interval. */
        std::vector<double> resident_frac;
        /** Per-cluster busy fractions of the current interval. */
        std::vector<double> cluster_frac;
        /** The current interval's elapsed time (1.0 s when zero)
         *  and GPU busy fraction. */
        double elapsed_s = 1.0;
        double gpu_busy_frac = 0.0;
        /** Per-block dynamic split of one evaluateNominal() variant. */
        std::vector<double> block_dyn;
    };

    explicit BatchedPowerEvaluator(
        std::vector<const GpuPowerModel *> variants);

    /** Number of stacked variants. */
    std::size_t variants() const { return _variants.size(); }

    /**
     * Evaluate every interval for every variant. out is resized to
     * variants() entries; out[v].dynamic_w[i] / dram_w[i] (and, with
     * want_blocks, the per-block rows) are the values
     * evaluateNominal() of *acts[i] gives variant v. Intervals are
     * processed in tiles, so the workspace footprint is bounded
     * regardless of the trace length.
     */
    void evaluate(const std::vector<const perf::ChipActivity *> &acts,
                  bool want_blocks, Workspace &ws,
                  std::vector<BatchedKernelPower> &out) const;

    /**
     * Evaluate one interval at the nominal junction temperature for
     * every variant: out[v] (out.size() == variants()) receives the
     * totals, the block split and the per-component detail
     * GpuPowerModel::assembleReport() builds the report from.
     * The Evals' vectors are reused, so a caller evaluating many
     * intervals into the same Evals performs no allocation.
     */
    void evaluateNominal(const perf::ChipActivity &act, Workspace &ws,
                         std::span<GpuPowerModel::Eval> out) const;

  private:
    /**
     * One column-compressed coefficient quad: the same component row
     * (e.g. wcu) of four consecutive variants as the four lanes of a
     * sparse group, in the chain-partitioned layout
     * perf::dotCountersSparseQuadPortable defines. Grouping lanes by
     * component — not by variant — is what makes the compression
     * bite: a component's sparsity pattern is shared across variants
     * (the rows are rescalings of one calibration), so all-zero
     * columns stay all-zero across the whole quad and vanish.
     */
    struct SparseQuad
    {
        /** Columns per partial-sum chain, concatenated in order. */
        unsigned counts[4] = {0, 0, 0, 0};
        /** First column in the shared idx/coeff pools. */
        std::size_t off = 0;
    };

    /** Chip totals of one (interval, variant) assembly. */
    struct Totals
    {
        double dynamic_w = 0.0;
        double dram_w = 0.0;
    };

    std::vector<const GpuPowerModel *> _variants;
    unsigned _n_cores = 0;
    /** Variant count rounded up to a whole number of quad lanes;
     *  padding lanes carry all-zero coefficients and their outputs
     *  are never read. */
    std::size_t _n_lanes = 0;
    /** Core coefficient quads, [quad * rows_per_variant + component]
     *  (component order wcu / rf / eu / ldst), with their column
     *  pools. */
    std::vector<SparseQuad> _core_quads;
    std::vector<int32_t> _core_idx;
    std::vector<double> _core_coeff; // [column * 4 + lane]
    /** Uncore quads (component order folded-L2-share / NoC / MC /
     *  PCIe) and their pools. */
    std::vector<SparseQuad> _mem_quads;
    std::vector<int32_t> _mem_idx;
    std::vector<double> _mem_coeff; // [column * 4 + lane]
    /** Per-variant products hoisted out of the per-interval loops:
     *  core_base_dyn * base_power_scale, cluster_base *
     *  base_power_scale, global_sched * base_power_scale. Each term
     *  multiplies its pair left-to-right before the per-interval
     *  fraction, so hoisting the product is bit-neutral. */
    std::vector<double> _core_base_scaled;
    std::vector<double> _cluster_base_scaled;
    std::vector<double> _sched_scaled;
    /** Per-variant nominal block statics (see static_blocks). */
    std::vector<std::vector<BlockPower>> _static_blocks;

    /** Rows each counter matrix contributes per variant. */
    static constexpr std::size_t rows_per_variant = 4;

    /** Doubles per packed value row in the product tiles: the four
     *  component slots, each _n_lanes variants wide. */
    std::size_t rowStride() const { return rows_per_variant * _n_lanes; }

    /** Pack the n records at acts as one tile and fill its core and
     *  mem products for every variant. */
    void products(const perf::ChipActivity *const *acts, std::size_t n,
                  Workspace &ws) const;
    /** The interval's elapsed time and busy fractions, shared by
     *  every variant's assembly. */
    void fractions(const perf::ChipActivity &act, Workspace &ws) const;
    /**
     * The assembly of tile interval li for variant v, the one place
     * power is computed from the products: the chip totals, plus the
     * per-block dynamic split into bd (zeroed, n_blocks entries) and
     * the per-component detail into ev when they are non-null.
     */
    Totals assemble(const perf::ChipActivity &act, std::size_t li,
                    std::size_t v, const Workspace &ws, double *bd,
                    GpuPowerModel::Eval *ev) const;
};

} // namespace power
} // namespace gpusimpow

#endif // GPUSIMPOW_POWER_BATCHED_HH
