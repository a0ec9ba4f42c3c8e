#include <vector>

namespace gpusimpow {

// tests/ is the reference oracles' home: they exist for the
// bit-identity and accuracy proofs against the production paths.
std::vector<double>
oracle(const std::vector<double> &powers)
{
    return net.solveLinearReference(powers);
}

SteadyResult
steadyOracle(const SteadyLane &lane)
{
    return ThermalReference::solveSteadyReference(net, lane);
}

void
eulerOracle(State &state, const std::vector<double> &powers)
{
    net.advanceEulerReference(state, powers, 1e-6);
}

} // namespace gpusimpow
