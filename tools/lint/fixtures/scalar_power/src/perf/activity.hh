// The dense dot product and its per-record wrapper, defined in the
// library: both flagged. A comment naming dotCountersRow is not.
inline double
dotCountersRow(const double *values, const double *coeff, unsigned n)
{
    return values[0] * coeff[0] * n;
}

inline double
dotCounters(const CoreActivity &a, const double *coeff)
{
    return coeff[0] * a.decodes;
}
