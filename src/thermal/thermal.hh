/**
 * @file
 * Closed-loop thermal subsystem: a compact RC thermal network in the
 * HotSpot tradition. The die is partitioned into coarse blocks (one
 * per core cluster, plus the shared L2 and the uncore controllers),
 * each coupled vertically through the package to a lumped heatsink
 * node and laterally to its die neighbors; the external GDDR5 devices
 * form a separate board-level block with their own path to ambient.
 *
 * Two solvers close the power-temperature loop:
 *  - solveSteady(): fixed-point iteration power -> temperature ->
 *    (tempLeakFactor-scaled) leakage -> power for whole-kernel
 *    reports, with thermal-runaway detection;
 *  - advance(): a transient integrator driven by the sampled power
 *    waveform, producing a per-block temperature waveform.
 *
 * The conductance system is constant for the life of a network, so
 * the constructor factors it once (partial-pivoted LU, performing the
 * elimination in the exact order the historical one-shot dense solve
 * used, so every solution stays bit-identical) and every linear solve
 * afterwards is an O(n^2) substitution. Transients integrate with an
 * exact LTI propagator per distinct time step (the RC network under
 * piecewise-constant power is linear time-invariant, so
 * T' = P*T + Q*u is exact for any dt), cached keyed on dt; the
 * historical forward-Euler substepping survives only as the
 * advanceEulerReference() oracle.
 *
 * Temperature becomes a simulated *output* instead of the static
 * config constant, which is what lets leakage-temperature compounding
 * and DVFS thermal throttling be studied at all.
 */

#ifndef GPUSIMPOW_THERMAL_THERMAL_HH
#define GPUSIMPOW_THERMAL_THERMAL_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gpusimpow {

struct ThermalConfig;

namespace thermal {

/**
 * The coarse block decomposition shared by the power and thermal
 * layers: block powers, areas, and temperatures are always vectors in
 * this fixed order:
 *
 *   [cluster0 .. clusterN-1] [l2 (only when present)] [uncore] [dram]
 *
 * The die blocks (everything before dram) sit under the heatsink; the
 * DRAM devices are off-package with their own path to ambient.
 */
struct BlockSet
{
    /** Display names, e.g. "cluster0", "l2", "uncore", "dram". */
    std::vector<std::string> names;
    /** Die area per block, mm^2 (the dram entry is board-level and
     *  unused by the vertical-resistance sizing). */
    std::vector<double> area_mm2;
    /** Core clusters in the decomposition. */
    std::size_t num_clusters = 0;
    /** True when a shared-L2 block is present. */
    bool has_l2 = false;

    std::size_t size() const { return names.size(); }
    /** Die blocks (all but the off-package dram block). */
    std::size_t numDie() const { return size() - 1; }
    std::size_t l2Index() const { return num_clusters; }
    std::size_t uncoreIndex() const
    {
        return num_clusters + (has_l2 ? 1 : 0);
    }
    std::size_t dramIndex() const { return uncoreIndex() + 1; }
};

/** Outcome of a steady-state (fixed-point) solve. */
struct SteadyResult
{
    /** Solved block temperatures, K (BlockSet order). */
    std::vector<double> temps_k;
    /** Heatsink node temperature, K. */
    double heatsink_k = 0.0;
    /** Fixed-point iterations performed. */
    unsigned iterations = 0;
    /**
     * False when the leakage-temperature loop diverged (thermal
     * runaway): temperatures are then clamped at runaway_cap_k and
     * the reported power is a lower bound on the physical disaster.
     */
    bool converged = false;

    /** Hottest block temperature, K. */
    double maxTemp() const;
    /** Index of the hottest block. */
    std::size_t hottestBlock() const;
};

/**
 * The RC network itself. Node order: die blocks, the dram block, and
 * one lumped heatsink node; ambient is a fixed-temperature boundary.
 * Construction assembles and LU-factors the conductance system (a
 * handful of conductances, <= ~20 nodes); each solve afterwards is an
 * O(n^2) substitution against the cached factorization.
 *
 * Const methods are safe to call concurrently from multiple threads
 * (distinct State objects per thread for advance()): the factored
 * system is immutable after construction and the per-dt propagator
 * cache is mutex-guarded.
 */
class ThermalNetwork
{
  public:
    /**
     * @param blocks die/board decomposition (names + areas)
     * @param tc cooling parameters; tc.r_heatsink_k_per_w <= 0
     *        auto-sizes the heatsink to the die area (stock area
     *        law x tc.cooling_scale)
     */
    ThermalNetwork(const BlockSet &blocks, const ThermalConfig &tc);

    const BlockSet &blocks() const { return _blocks; }
    /** Ambient (boundary) temperature, K. */
    double ambient() const { return _ambient_k; }
    /** Effective heatsink-to-ambient resistance in use, K/W. */
    double heatsinkResistance() const { return 1.0 / _g_amb.back(); }

    /**
     * Temperatures for one fixed power assignment (no leakage
     * feedback): solve G*T = P with the ambient boundary folded in.
     * @param powers_w heat per block, W (BlockSet order)
     * @return node temperatures: blocks then heatsink (size()+1)
     */
    std::vector<double>
    solveLinear(const std::vector<double> &powers_w) const;

    /**
     * Allocation-free solveLinear() into caller-owned scratch:
     * nodes_out is resized to size()+1 once and reused afterwards.
     * Bit-identical to solveLinear() (it is the implementation).
     */
    void solveLinearInto(const std::vector<double> &powers_w,
                         std::vector<double> &nodes_out) const;

    /**
     * Bit-identity oracle: the historical one-shot path — assemble
     * the dense system and eliminate it from scratch with partial
     * pivoting, exactly as every solve did before the factorization
     * was hoisted to construction. Kept (only) so tests and benches
     * can prove solveLinear() bit-identical to it and measure the
     * factored path against it; not a production entry point.
     */
    std::vector<double>
    solveLinearReference(const std::vector<double> &powers_w) const;

    /**
     * Closed-loop steady state: iterate temperature -> power until
     * the hottest block moves < tol_k between iterations.
     * @param power_at callback mapping block temperatures (BlockSet
     *        order) to block powers, W — this is where the caller
     *        applies tempLeakFactor to the leakage share
     * @param warm_start_k optional block temperatures (BlockSet
     *        order) to start the fixed-point iteration from — the
     *        previous solution when the caller solves a sequence of
     *        nearby operating points (governor bisection, kernels of
     *        one scenario). Ignored (cold start at ambient) when
     *        null or of the wrong size; the iteration converges to
     *        the same fixed point within tolerance either way.
     */
    SteadyResult
    solveSteady(const std::function<std::vector<double>(
                    const std::vector<double> &)> &power_at,
                const std::vector<double> *warm_start_k = nullptr)
        const;

    /** Transient node state: block temperatures plus heatsink, K. */
    struct State
    {
        std::vector<double> temps_k; // blocks then heatsink
        bool initialized = false;
        /** advance() scratch (next temperatures / propagator input),
         *  kept here so concurrent advances on distinct States never
         *  share a buffer and nothing allocates per call. */
        std::vector<double> scratch;
        std::vector<double> scratch2;
    };

    /** Every node at ambient (cold start). */
    State ambientState() const;

    /**
     * Integrate the network forward by dt_s under constant block
     * powers: two cached mat-vecs of the exact propagator, whatever
     * dt is. Spans much longer than the slowest time constant snap
     * to the fixed-power steady solution instead.
     */
    void advance(State &state, const std::vector<double> &powers_w,
                 double dt_s) const;

    /**
     * Accuracy oracle: the historical forward-Euler substepping
     * (stable substeps of at most maxStableDt()), with the same
     * state initialization and long-span steady snap as advance().
     * Kept (only) so tests and benches can bound the exact
     * propagator against it and price the pre-propagator march;
     * not a production entry point.
     */
    void advanceEulerReference(State &state,
                               const std::vector<double> &powers_w,
                               double dt_s) const;

    /** Largest externally meaningful Euler step, s (precomputed at
     *  construction). */
    double maxStableDt() const { return _max_stable_dt; }

    /** Temperatures above this clamp as diverged (thermal runaway). */
    static constexpr double runaway_cap_k = 500.0;

  private:
    BlockSet _blocks;
    double _ambient_k;
    std::size_t _n; // block nodes + heatsink
    /** Symmetric node-to-node conductances, W/K (dense, row-major). */
    std::vector<double> _g;
    /** Per-node conductance to the ambient boundary, W/K. */
    std::vector<double> _g_amb;
    /** Per-node heat capacitance, J/K. */
    std::vector<double> _c;

    /** Assembled system matrix A (row-major): diag(sum of
     *  conductances) - offdiagonals, the ambient boundary folded into
     *  the diagonal. Kept unfactored for the propagator builds. */
    std::vector<double> _a_sys;
    /** Packed LU of _a_sys: U on and above the diagonal, the
     *  elimination multipliers below it (final row order). */
    std::vector<double> _lu;
    /** Partial-pivot row chosen at each elimination column. */
    std::vector<std::size_t> _pivot;
    /** Hoisted maxStableDt() (the network is immutable). */
    double _max_stable_dt = 0.0;

    /** Discrete exact update for one dt: T' = P*T + Q*u, with u the
     *  same right-hand side the linear solve uses (block powers plus
     *  the ambient boundary current). */
    struct Propagator
    {
        double dt_s = 0.0;
        std::vector<double> p; // n x n
        std::vector<double> q; // n x n
    };
    /** Per-dt propagator cache. Guarded by _prop_mutex: the network
     *  is logically const while simulator threads advance through
     *  it, so the lazily built propagators must synchronize. Entries
     *  are pointer-stable (unique_ptr) so a reference outlives the
     *  lock. */
    mutable std::mutex _prop_mutex;
    mutable std::vector<std::unique_ptr<Propagator>> _propagators;

    double conductance(std::size_t a, std::size_t b) const
    {
        return _g[a * _n + b];
    }
    void setConductance(std::size_t a, std::size_t b, double g);
    /** Assemble _a_sys and factor it into _lu/_pivot (constructor
     *  tail, once the conductances are final). */
    void factorize();
    /** b[i] = powers + ambient boundary current (the shared RHS of
     *  the linear solve and the exact propagator). */
    void assembleRhs(const std::vector<double> &powers_w,
                     std::vector<double> &b) const;
    const Propagator &propagatorFor(double dt_s) const;
    /** Shared advance() prologue: initialize the state, and settle
     *  spans that need no integration (dt <= 0, or the long-span
     *  steady snap). Returns true when the caller must integrate. */
    bool beginAdvance(State &state, const std::vector<double> &powers_w,
                      double dt_s) const;
};

/**
 * Stock-cooler area law: heatsink-to-ambient resistance of the
 * cooler a card of this die size ships with, K/W. Larger dies ship
 * disproportionately beefier coolers (vapor chambers, more heatpipes),
 * hence the superlinear area exponent. Calibrated so the steady-state
 * solve lands at the nominal 350 K junction temperature on both
 * Table II anchor configurations running blackscholes.
 */
double stockHeatsinkResistance(double die_area_mm2);

} // namespace thermal
} // namespace gpusimpow

#endif // GPUSIMPOW_THERMAL_THERMAL_HH
