#include <vector>

namespace gpusimpow {
namespace thermal {

// The library's own thermal code gets no exemption: a one-shot
// eliminator and the oracle kept next to the factored solver are
// both flagged.
std::vector<double>
solveDense(std::vector<double> a, std::vector<double> b)
{
    (void)a;
    return b;
}

std::vector<double>
ThermalNetwork::solveLinearReference(
    const std::vector<double> &powers_w) const
{
    return solveLinear(powers_w);
}

// Production marches through the exact propagator: fine.
void
ThermalNetwork::step(State &state, const std::vector<double> &powers_w)
{
    advance(state, powers_w, 1e-6);
}

} // namespace thermal
} // namespace gpusimpow
