// Fixture: the tests' scalar reference evaluator, a coefficient-row
// consumer with a hard-coded counter count.
double f(const double *values, const double *coeff)
{
    return dotCountersRow(values, coeff, 46);
}
