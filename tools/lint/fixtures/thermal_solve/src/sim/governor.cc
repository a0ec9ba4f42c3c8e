#include <vector>

namespace gpusimpow {

// Dense reference solve in engine code: must be flagged.
std::vector<double>
steadyProbe(const std::vector<double> &powers)
{
    return net.solveLinearReference(powers);
}

// A home-grown eliminator named after the oracle: also flagged.
void
solveDense(std::vector<double> &a, std::vector<double> &b)
{
    (void)a;
    (void)b;
}

// Annotation without a reason does not bless the call.
// lint: thermal-solve-ok()
std::vector<double>
steadyProbeUnjustified(const std::vector<double> &powers)
{
    return net.solveLinearReference(powers);
}

// Forward-Euler oracle march in engine code: must be flagged.
void
marchProbe(State &state, const std::vector<double> &powers)
{
    net.advanceEulerReference(state, powers, 1e-6);
}

// Factored production solve: fine anywhere.
std::vector<double>
steadyFast(const std::vector<double> &powers)
{
    return net.solveLinear(powers);
}

} // namespace gpusimpow
