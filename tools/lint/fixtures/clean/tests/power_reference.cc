// Fixture: the tests' scalar reference evaluator, a coefficient-row
// consumer using the layout constants (tests/ is its only home).
double f(const double *values, const double *coeff)
{
    return dotCountersRow(values, coeff, core_activity_fields);
}
