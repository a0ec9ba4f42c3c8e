// A benchmark timing a scalar evaluation instead of the production
// evaluator: flagged.
double
timeScalar(const MemActivity &mem, const double *coeff)
{
    return perf::dotCounters(mem, coeff);
}
