namespace gpusimpow {
namespace power {

// A scalar evaluator kept next to the batched one: flagged.
void
GpuPowerModel::evaluateImpl(const ChipActivity &act, Eval &out) const
{
    double counters[core_activity_fields];
    countersToRow(act.cores[0], counters);
    out.dynamic_w = dotCountersRow(counters, _core_coeff.wcu.data(),
                                   core_activity_fields);
}

// The batched evaluator's sparse quad kernel: fine.
void
BatchedPowerEvaluator::products(const double *values) const
{
    dotCountersSparseQuadPortable(values, _idx, _coeff, _counts, 1.0,
                                  _out);
}

} // namespace power
} // namespace gpusimpow
