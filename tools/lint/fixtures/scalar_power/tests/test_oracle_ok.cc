// tests/ is the scalar evaluator's home: the oracle of the
// production evaluator's bit-identity proofs.
double
oracle(const double *values, const double *coeff)
{
    return PowerReference::dotCountersRow(values, coeff,
                                          core_activity_fields);
}
