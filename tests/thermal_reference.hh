/**
 * @file
 * Reference implementations of the thermal network's two historical
 * solvers, kept as test oracles for the production fast paths:
 *
 *  - solveLinearReference(): assemble the dense system and eliminate
 *    it from scratch with partial pivoting, exactly as every solve
 *    did before the factorization was hoisted into the
 *    ThermalNetwork constructor. The factored solveLinear() must
 *    match it bit for bit.
 *  - solveSteadyReference(): the closed-loop fixed point one
 *    operating point at a time, each iteration a dense solve — the
 *    scalar loop the lockstep solveSteady() replaced. Every lane of a
 *    lockstep batch must match it bit for bit.
 *  - advanceEulerReference(): forward-Euler substepping (stable
 *    substeps of at most maxStableDt()), with the same state
 *    initialization and long-span steady snap as advance(). The exact
 *    propagator is bounded against it.
 *
 * ThermalNetwork befriends ThermalReference so the oracles run on the
 * network's own assembled matrix, right-hand side and conductances —
 * the arithmetic is the historical one, byte for byte. Deliberately
 * *not* part of the production library.
 */

#ifndef GPUSIMPOW_TESTS_THERMAL_REFERENCE_HH
#define GPUSIMPOW_TESTS_THERMAL_REFERENCE_HH

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "tech/tech.hh"
#include "thermal/thermal.hh"

namespace gpusimpow {
namespace thermal {

struct ThermalReference
{
    /**
     * Solve the dense system A*x = b in place with Gaussian
     * elimination + partial pivoting: the historical one-shot solver
     * the cached factorization replicates.
     */
    static std::vector<double>
    solveDense(std::vector<double> a, std::vector<double> b)
    {
        const std::size_t n = b.size();
        GSP_ASSERT(a.size() == n * n, "thermal matrix shape mismatch");
        for (std::size_t col = 0; col < n; ++col) {
            std::size_t pivot = col;
            for (std::size_t row = col + 1; row < n; ++row)
                if (std::fabs(a[row * n + col]) >
                    std::fabs(a[pivot * n + col]))
                    pivot = row;
            if (pivot != col) {
                for (std::size_t k = 0; k < n; ++k)
                    std::swap(a[col * n + k], a[pivot * n + k]);
                std::swap(b[col], b[pivot]);
            }
            double diag = a[col * n + col];
            GSP_ASSERT(std::fabs(diag) > 1e-30,
                       "singular thermal network (isolated node?)");
            for (std::size_t row = col + 1; row < n; ++row) {
                double f = a[row * n + col] / diag;
                if (f == 0.0)
                    continue;
                for (std::size_t k = col; k < n; ++k)
                    a[row * n + k] -= f * a[col * n + k];
                b[row] -= f * b[col];
            }
        }
        std::vector<double> x(n, 0.0);
        for (std::size_t row = n; row-- > 0;) {
            double sum = b[row];
            for (std::size_t k = row + 1; k < n; ++k)
                sum -= a[row * n + k] * x[k];
            x[row] = sum / a[row * n + row];
        }
        return x;
    }

    /** Bit-identity oracle of ThermalNetwork::solveLinear(). */
    static std::vector<double>
    solveLinearReference(const ThermalNetwork &net,
                         const std::vector<double> &powers_w)
    {
        GSP_ASSERT(powers_w.size() == net._blocks.size(),
                   "power vector does not match block set");
        std::vector<double> b;
        net.assembleRhs(powers_w, b);
        return solveDense(net._a_sys, std::move(b));
    }

    /** Bit-identity oracle of one lane of ThermalNetwork::
     *  solveSteady(): no counters, no warning. */
    static SteadyResult
    solveSteadyReference(const ThermalNetwork &net,
                         const SteadyLane &lane)
    {
        const std::size_t nb = net._blocks.size();
        const std::vector<BlockPower> &bp = *lane.blocks;
        SteadyResult result;
        if (lane.warm_start_k && lane.warm_start_k->size() == nb)
            result.temps_k = *lane.warm_start_k;
        else
            result.temps_k.assign(nb, net._ambient_k);
        result.heatsink_k = net._ambient_k;
        std::vector<double> powers(nb, 0.0);
        constexpr unsigned max_iterations = 1000;
        for (unsigned iter = 0; iter < max_iterations; ++iter) {
            for (std::size_t i = 0; i < nb; ++i)
                powers[i] = bp[i].dynamic_w * lane.freq_ratio +
                            bp[i].sub_leak_w *
                                (tech::tempLeakFactorAt(
                                     result.temps_k[i]) /
                                 lane.nominal_leak_factor) +
                            bp[i].fixed_w;
            std::vector<double> nodes = solveLinearReference(net, powers);
            bool capped = false;
            double delta = 0.0;
            for (std::size_t i = 0; i < nb; ++i) {
                double t = nodes[i];
                if (t > ThermalNetwork::runaway_cap_k) {
                    t = ThermalNetwork::runaway_cap_k;
                    capped = true;
                }
                delta = std::max(delta, std::fabs(t - result.temps_k[i]));
                result.temps_k[i] = t;
            }
            result.heatsink_k =
                std::min(nodes[net._n - 1], ThermalNetwork::runaway_cap_k);
            result.iterations = iter + 1;
            if (delta < 1e-4) {
                result.converged = !capped;
                return result;
            }
        }
        result.converged = false;
        return result;
    }

    /** Accuracy oracle of ThermalNetwork::advance(). */
    static void
    advanceEulerReference(const ThermalNetwork &net,
                          ThermalNetwork::State &state,
                          const std::vector<double> &powers_w,
                          double dt_s)
    {
        if (!net.beginAdvance(state, powers_w, dt_s))
            return;
        const std::size_t n = net._n;
        double steps_needed = dt_s / net._max_stable_dt;
        unsigned steps = std::max(
            1u, static_cast<unsigned>(std::ceil(steps_needed)));
        double h = dt_s / steps;
        state.scratch.resize(n);
        std::vector<double> &next = state.scratch;
        for (unsigned s = 0; s < steps; ++s) {
            for (std::size_t i = 0; i < n; ++i) {
                double flow =
                    (i < powers_w.size() ? powers_w[i] : 0.0) +
                    net._g_amb[i] * (net._ambient_k - state.temps_k[i]);
                for (std::size_t j = 0; j < n; ++j)
                    if (j != i)
                        flow += net.conductance(i, j) *
                                (state.temps_k[j] - state.temps_k[i]);
                next[i] = std::min(state.temps_k[i] + h * flow / net._c[i],
                                   ThermalNetwork::runaway_cap_k);
            }
            state.temps_k.swap(next);
        }
    }
};

} // namespace thermal
} // namespace gpusimpow

#endif // GPUSIMPOW_TESTS_THERMAL_REFERENCE_HH
