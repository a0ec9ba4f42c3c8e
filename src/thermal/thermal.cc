#include "thermal/thermal.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "config/gpu_config.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace gpusimpow {
namespace thermal {

namespace {

/**
 * Stock-cooler area law constants (see stockHeatsinkResistance).
 * Calibrated against the golden-anchor blackscholes runs: GT240
 * (105.1 mm^2, ~39 W on-die) and GTX580 (305.5 mm^2, ~143.6 W
 * on-die) both settle within a couple of kelvin of the nominal 350 K
 * junction temperature at the default 318 K case-ambient.
 */
constexpr double stock_hs_k = 252.0;
constexpr double stock_hs_area_exp = 1.25;

/** Vertical-path sizing floor: a zero-area block would otherwise be
 *  thermally disconnected from the heatsink (singular matrix). */
constexpr double min_block_area_mm2 = 0.5;

/** Steady-state fixed-point controls. */
constexpr double steady_tol_k = 1e-4;
constexpr unsigned steady_max_iterations = 1000;

/** Transient substep cap; longer spans snap to the steady solution
 *  (they exceed every time constant by orders of magnitude). Shared
 *  by advance() and the Euler reference so both snap the same spans. */
constexpr unsigned max_substeps = 50000;

/** Propagator cache bound: distinct dts come from trace sampling
 *  (one or two per kernel) plus per-kernel whole-span marches, so
 *  the cache stays tiny in practice; the bound only stops a
 *  pathological caller from growing it without limit. */
constexpr std::size_t max_cached_propagators = 64;

/** Scaling-and-squaring target: halve the step until the scaled
 *  ||M*h|| is at most this, where the Taylor series converges in a
 *  handful of terms with no cancellation. */
constexpr double expm_norm_target = 0.5;

/**
 * Solve the dense symmetric-positive system A*x = b in place with
 * Gaussian elimination + partial pivoting. n is tiny (block count +
 * heatsink, typically <= 10), so O(n^3) is irrelevant. This is the
 * historical one-shot solver the cached factorization replicates —
 * kept as the bit-identity oracle behind solveLinearReference().
 */
std::vector<double>
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

/** Infinity norm of a dense row-major n x n matrix. */
double
infNorm(const std::vector<double> &m, std::size_t n)
{
    double norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        double row = 0.0;
        for (std::size_t j = 0; j < n; ++j)
            row += std::fabs(m[i * n + j]);
        norm = std::max(norm, row);
    }
    return norm;
}

/** out = a * b for dense row-major n x n matrices. */
void
matMul(const std::vector<double> &a, const std::vector<double> &b,
       std::size_t n, std::vector<double> &out)
{
    out.assign(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t k = 0; k < n; ++k) {
            double aik = a[i * n + k];
            if (aik == 0.0)
                continue;
            for (std::size_t j = 0; j < n; ++j)
                out[i * n + j] += aik * b[k * n + j];
        }
}

} // namespace

double
stockHeatsinkResistance(double die_area_mm2)
{
    GSP_ASSERT(die_area_mm2 > 0.0, "die area must be positive");
    return stock_hs_k / std::pow(die_area_mm2, stock_hs_area_exp);
}

double
SteadyResult::maxTemp() const
{
    double t = 0.0;
    for (double v : temps_k)
        t = std::max(t, v);
    return t;
}

std::size_t
SteadyResult::hottestBlock() const
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < temps_k.size(); ++i)
        if (temps_k[i] > temps_k[best])
            best = i;
    return best;
}

ThermalNetwork::ThermalNetwork(const BlockSet &blocks,
                               const ThermalConfig &tc)
    : _blocks(blocks), _ambient_k(tc.ambient_k)
{
    GSP_ASSERT(blocks.size() >= 2, "thermal network needs >= 2 blocks");
    GSP_ASSERT(blocks.names.size() == blocks.area_mm2.size(),
               "block names/areas mismatch");
    const std::size_t num_blocks = blocks.size();
    const std::size_t hs = num_blocks; // heatsink node index
    _n = num_blocks + 1;
    _g.assign(_n * _n, 0.0);
    _g_amb.assign(_n, 0.0);
    _c.assign(_n, 0.0);

    double die_area = 0.0;
    for (std::size_t i = 0; i < blocks.numDie(); ++i)
        die_area += std::max(blocks.area_mm2[i], min_block_area_mm2);

    // Vertical path of every die block through TIM/spreader to the
    // heatsink, sized by block area; lateral spreading couples die
    // neighbors in layout order.
    for (std::size_t i = 0; i < blocks.numDie(); ++i) {
        double area = std::max(blocks.area_mm2[i], min_block_area_mm2);
        setConductance(i, hs, area / tc.r_die_k_mm2_per_w);
        _c[i] = area * tc.c_die_j_per_k_mm2;
        if (i + 1 < blocks.numDie())
            setConductance(i, i + 1, 1.0 / tc.r_lateral_k_per_w);
    }

    // The DRAM devices sit on the board with their own (airflow)
    // path to ambient — no coupling into the die heatsink.
    std::size_t dram = blocks.dramIndex();
    _g_amb[dram] = 1.0 / tc.r_dram_k_per_w;
    _c[dram] = tc.c_dram_j_per_k;

    // Heatsink to ambient: explicit resistance, or the stock area
    // law scaled by the cooling preset.
    double r_hs = tc.r_heatsink_k_per_w > 0.0
                      ? tc.r_heatsink_k_per_w
                      : stockHeatsinkResistance(die_area) *
                            tc.cooling_scale;
    GSP_ASSERT(r_hs > 0.0, "heatsink resistance must be positive");
    _g_amb[hs] = 1.0 / r_hs;
    _c[hs] = tc.c_heatsink_j_per_k;

    // Forward Euler is stable below 2*C/G per node; keep a 2x
    // margin. The network is immutable, so compute it once here.
    double dt = 1e30;
    for (std::size_t i = 0; i < _n; ++i) {
        double g = _g_amb[i];
        for (std::size_t j = 0; j < _n; ++j)
            if (j != i)
                g += conductance(i, j);
        if (g > 0.0 && _c[i] > 0.0)
            dt = std::min(dt, _c[i] / g);
    }
    _max_stable_dt = 0.5 * dt;

    factorize();
}

void
ThermalNetwork::setConductance(std::size_t a, std::size_t b, double g)
{
    _g[a * _n + b] = g;
    _g[b * _n + a] = g;
}

void
ThermalNetwork::factorize()
{
    // Assemble A exactly as the historical per-solve path did:
    // diag(sum of conductances) - offdiagonal conductances, with the
    // ambient boundary conductance folded into the diagonal. The
    // accumulation order matters — the factorization must reproduce
    // solveDense bit for bit.
    _a_sys.assign(_n * _n, 0.0);
    for (std::size_t i = 0; i < _n; ++i) {
        double diag = _g_amb[i];
        for (std::size_t j = 0; j < _n; ++j) {
            if (i == j)
                continue;
            double g = conductance(i, j);
            diag += g;
            _a_sys[i * _n + j] = -g;
        }
        _a_sys[i * _n + i] = diag;
    }

    // Partial-pivoted LU in solveDense's exact elimination order:
    // same pivot choice, same full-row swaps, same subtraction range
    // (k >= col), same f == 0 skip. Row swaps carry the already
    // stored multipliers with them, which is exactly what makes the
    // packed layout's forward substitution replay the historical
    // interleaved b-updates bit for bit (swaps are exact, so
    // commuting them past earlier eliminations only relabels rows).
    _lu = _a_sys;
    _pivot.assign(_n, 0);
    const std::size_t n = _n;
    for (std::size_t col = 0; col < n; ++col) {
        std::size_t pivot = col;
        for (std::size_t row = col + 1; row < n; ++row)
            if (std::fabs(_lu[row * n + col]) >
                std::fabs(_lu[pivot * n + col]))
                pivot = row;
        _pivot[col] = pivot;
        if (pivot != col)
            for (std::size_t k = 0; k < n; ++k)
                std::swap(_lu[col * n + k], _lu[pivot * n + k]);
        double diag = _lu[col * n + col];
        GSP_ASSERT(std::fabs(diag) > 1e-30,
                   "singular thermal network (isolated node?)");
        for (std::size_t row = col + 1; row < n; ++row) {
            double f = _lu[row * n + col] / diag;
            if (f == 0.0) {
                _lu[row * n + col] = 0.0;
                continue;
            }
            for (std::size_t k = col; k < n; ++k)
                _lu[row * n + k] -= f * _lu[col * n + k];
            // The eliminated entry is never read again as matrix
            // data; store the multiplier there (packed LU).
            _lu[row * n + col] = f;
        }
    }
}

void
ThermalNetwork::assembleRhs(const std::vector<double> &powers_w,
                            std::vector<double> &b) const
{
    b.resize(_n);
    for (std::size_t i = 0; i < _n; ++i)
        b[i] = (i < powers_w.size() ? powers_w[i] : 0.0) +
               _g_amb[i] * _ambient_k;
}

void
ThermalNetwork::solveLinearInto(const std::vector<double> &powers_w,
                                std::vector<double> &nodes_out) const
{
    GSP_ASSERT(powers_w.size() == _blocks.size(),
               "power vector does not match block set");
    assembleRhs(powers_w, nodes_out);
    const std::size_t n = _n;
    std::vector<double> &b = nodes_out;
    // Row permutation + forward substitution with the stored
    // multipliers: the same axpy sequence the historical interleaved
    // elimination applied to b, element for element.
    for (std::size_t col = 0; col < n; ++col) {
        if (_pivot[col] != col)
            std::swap(b[col], b[_pivot[col]]);
        for (std::size_t row = col + 1; row < n; ++row) {
            double f = _lu[row * n + col];
            if (f == 0.0)
                continue;
            b[row] -= f * b[col];
        }
    }
    // Back substitution against U, in place (x[row] only reads
    // b[row] and already-computed x[k > row]).
    for (std::size_t row = n; row-- > 0;) {
        double sum = b[row];
        for (std::size_t k = row + 1; k < n; ++k)
            sum -= _lu[row * n + k] * b[k];
        b[row] = sum / _lu[row * n + row];
    }
}

std::vector<double>
ThermalNetwork::solveLinear(const std::vector<double> &powers_w) const
{
    std::vector<double> nodes;
    solveLinearInto(powers_w, nodes);
    return nodes;
}

std::vector<double>
ThermalNetwork::solveLinearReference(
    const std::vector<double> &powers_w) const
{
    GSP_ASSERT(powers_w.size() == _blocks.size(),
               "power vector does not match block set");
    std::vector<double> b;
    assembleRhs(powers_w, b);
    return solveDense(_a_sys, std::move(b));
}

SteadyResult
ThermalNetwork::solveSteady(
    const std::function<
        std::vector<double>(const std::vector<double> &)> &power_at,
    const std::vector<double> *warm_start_k) const
{
    GSP_TRACE_SPAN("thermal/steady");
    static obs::Counter &c_solves = obs::Registry::instance().counter(
        "thermal/steady_solves", "steady-state network solves");
    static obs::Counter &c_iters = obs::Registry::instance().counter(
        "thermal/steady_iterations",
        "fixed-point iterations across steady solves");
    static obs::Counter &c_warm = obs::Registry::instance().counter(
        "thermal/steady_warm_starts",
        "steady solves started from a previous solution");
    static obs::Counter &c_nonconv =
        obs::Registry::instance().counter(
            "thermal/steady_nonconverged",
            "steady solves that exhausted the iteration budget");
    static obs::Histogram &h_iters =
        obs::Registry::instance().histogram(
            "thermal/steady_iterations_per_solve",
            "fixed-point iterations per steady solve");
    c_solves.add(1);

    SteadyResult result;
    if (warm_start_k && warm_start_k->size() == _blocks.size()) {
        result.temps_k = *warm_start_k;
        c_warm.add(1);
    } else {
        result.temps_k.assign(_blocks.size(), _ambient_k);
    }
    result.heatsink_k = _ambient_k;

    bool capped = false;
    std::vector<double> nodes;
    for (unsigned iter = 0; iter < steady_max_iterations; ++iter) {
        c_iters.add(1);
        std::vector<double> powers = power_at(result.temps_k);
        solveLinearInto(powers, nodes);
        capped = false;
        double delta = 0.0;
        for (std::size_t i = 0; i < _blocks.size(); ++i) {
            double t = nodes[i];
            if (t > runaway_cap_k) {
                t = runaway_cap_k;
                capped = true;
            }
            delta = std::max(delta, std::fabs(t - result.temps_k[i]));
            result.temps_k[i] = t;
        }
        result.heatsink_k = std::min(nodes[_n - 1], runaway_cap_k);
        result.iterations = iter + 1;
        if (delta < steady_tol_k) {
            // A fixed point pinned at the cap is thermal runaway,
            // not convergence.
            result.converged = !capped;
            h_iters.record(result.iterations);
            return result;
        }
    }
    result.converged = false;
    c_nonconv.add(1);
    h_iters.record(result.iterations);
    warn("thermal steady solve did not converge after ",
         steady_max_iterations,
         " fixed-point iterations (hottest block ",
         result.maxTemp(), " K)");
    return result;
}

ThermalNetwork::State
ThermalNetwork::ambientState() const
{
    State s;
    s.temps_k.assign(_n, _ambient_k);
    s.initialized = true;
    return s;
}

const ThermalNetwork::Propagator &
ThermalNetwork::propagatorFor(double dt_s) const
{
    std::lock_guard<std::mutex> lock(_prop_mutex);
    for (const auto &p : _propagators)
        if (p->dt_s == dt_s)
            return *p;
    if (_propagators.size() >= max_cached_propagators)
        _propagators.clear();

    const std::size_t n = _n;
    // dT/dt = M*T + C^-1*u with M = -C^-1*A: the LTI system whose
    // exact discrete update we precompute.
    std::vector<double> m(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        GSP_ASSERT(_c[i] > 0.0,
                   "thermal node without heat capacity");
        for (std::size_t j = 0; j < n; ++j)
            m[i * n + j] = -_a_sys[i * n + j] / _c[i];
    }

    // Scaling and squaring: halve the step until ||M*h|| is small,
    // Taylor-sum S(h) = integral of e^(M*s) ds over [0, h], then
    // double the step back up with P(2h) = P(h)^2 and
    // Q(2h) = P(h)*Q(h) + Q(h).
    unsigned squarings = 0;
    double scaled_norm = infNorm(m, n) * dt_s;
    while (scaled_norm > expm_norm_target && squarings < 64) {
        scaled_norm *= 0.5;
        ++squarings;
    }
    double h = std::ldexp(dt_s, -static_cast<int>(squarings));

    // S = sum_k M^k * h^(k+1) / (k+1)!  (term recurrence
    // T_k = M*T_(k-1) * h/(k+1), T_0 = h*I).
    std::vector<double> term(n * n, 0.0), s_mat(n * n, 0.0);
    std::vector<double> tmp(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        term[i * n + i] = h;
    s_mat = term;
    for (unsigned k = 1; k < 64; ++k) {
        matMul(m, term, n, tmp);
        double scale = h / static_cast<double>(k + 1);
        for (double &v : tmp)
            v *= scale;
        term.swap(tmp);
        double tn = infNorm(term, n);
        for (std::size_t i = 0; i < n * n; ++i)
            s_mat[i] += term[i];
        if (tn <= infNorm(s_mat, n) * 1e-18)
            break;
    }

    auto prop = std::make_unique<Propagator>();
    prop->dt_s = dt_s;
    // P = I + M*S; Q = S*C^-1 (column scaling).
    matMul(m, s_mat, n, prop->p);
    for (std::size_t i = 0; i < n; ++i)
        prop->p[i * n + i] += 1.0;
    prop->q.assign(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            prop->q[i * n + j] = s_mat[i * n + j] / _c[j];

    for (unsigned sq = 0; sq < squarings; ++sq) {
        // Q first: it needs the un-squared P.
        matMul(prop->p, prop->q, n, tmp);
        for (std::size_t i = 0; i < n * n; ++i)
            prop->q[i] = tmp[i] + prop->q[i];
        matMul(prop->p, prop->p, n, tmp);
        prop->p.swap(tmp);
    }

    _propagators.push_back(std::move(prop));
    return *_propagators.back();
}

bool
ThermalNetwork::beginAdvance(State &state,
                             const std::vector<double> &powers_w,
                             double dt_s) const
{
    GSP_ASSERT(powers_w.size() == _blocks.size(),
               "power vector does not match block set");
    if (!state.initialized)
        state = ambientState();
    GSP_ASSERT(state.temps_k.size() == _n,
               "thermal state does not match network");
    if (dt_s <= 0.0)
        return false;

    if (dt_s / _max_stable_dt > static_cast<double>(max_substeps)) {
        // The span dwarfs every time constant: the trajectory has
        // long since settled at the fixed-power steady solution.
        // (It also keeps the exact path's squaring count bounded.)
        solveLinearInto(powers_w, state.scratch);
        for (std::size_t i = 0; i < _n; ++i)
            state.temps_k[i] =
                std::min(state.scratch[i], runaway_cap_k);
        return false;
    }
    return true;
}

void
ThermalNetwork::advance(State &state,
                        const std::vector<double> &powers_w,
                        double dt_s) const
{
    if (!beginAdvance(state, powers_w, dt_s))
        return;
    const Propagator &prop = propagatorFor(dt_s);
    const std::size_t n = _n;
    assembleRhs(powers_w, state.scratch2);
    state.scratch.resize(n);
    const std::vector<double> &t = state.temps_k;
    const std::vector<double> &u = state.scratch2;
    for (std::size_t i = 0; i < n; ++i) {
        double acc = 0.0;
        const double *prow = prop.p.data() + i * n;
        const double *qrow = prop.q.data() + i * n;
        for (std::size_t j = 0; j < n; ++j)
            acc += prow[j] * t[j] + qrow[j] * u[j];
        state.scratch[i] = std::min(acc, runaway_cap_k);
    }
    state.temps_k.swap(state.scratch);
}

void
ThermalNetwork::advanceEulerReference(State &state,
                                      const std::vector<double> &powers_w,
                                      double dt_s) const
{
    if (!beginAdvance(state, powers_w, dt_s))
        return;
    double steps_needed = dt_s / _max_stable_dt;
    unsigned steps =
        std::max(1u, static_cast<unsigned>(std::ceil(steps_needed)));
    double h = dt_s / steps;
    state.scratch.resize(_n);
    std::vector<double> &next = state.scratch;
    for (unsigned s = 0; s < steps; ++s) {
        for (std::size_t i = 0; i < _n; ++i) {
            double flow =
                (i < powers_w.size() ? powers_w[i] : 0.0) +
                _g_amb[i] * (_ambient_k - state.temps_k[i]);
            for (std::size_t j = 0; j < _n; ++j)
                if (j != i)
                    flow += conductance(i, j) *
                            (state.temps_k[j] - state.temps_k[i]);
            next[i] = std::min(state.temps_k[i] + h * flow / _c[i],
                               runaway_cap_k);
        }
        state.temps_k.swap(next);
    }
}

} // namespace thermal
} // namespace gpusimpow
