#include <vector>

namespace gpusimpow {

// tests/ may call the reference oracle freely: this is exactly what
// it is exposed for (bit-identity proofs against the factored path).
std::vector<double>
oracle(const std::vector<double> &powers)
{
    return net.solveLinearReference(powers);
}

void
eulerOracle(State &state, const std::vector<double> &powers)
{
    net.advanceEulerReference(state, powers, 1e-6);
}

} // namespace gpusimpow
