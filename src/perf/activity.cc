#include "perf/activity.hh"

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/logging.hh"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define GSP_HAVE_AVX2_DISPATCH 1
#endif

namespace gpusimpow {
namespace perf {

namespace {

#ifdef GSP_HAVE_AVX2_DISPATCH
/**
 * AVX2 sparse quad-dot: one 4-wide vector register per partial-sum
 * chain, lane j carrying coefficient row j. Explicit separate mul
 * and add intrinsics (never fma) make each lane's arithmetic the
 * exact IEEE operation sequence of the portable kernel, so the
 * packed results are bit-identical across every path.
 * Compiled with a target attribute and selected at runtime, so the
 * binary itself stays baseline x86-64. The trailing division is
 * IEEE-correctly-rounded per lane, identical to four scalar divides.
 */
__attribute__((target("avx2"))) void
dotCountersSparseQuadAvx2(const double *values, const int32_t *idx,
                          const double *coeff,
                          const unsigned counts[4], double divisor,
                          double *out4)
{
    __m256d acc[4];
    std::size_t off = 0;
    for (unsigned chain = 0; chain < 4; ++chain) {
        __m256d s = _mm256_setzero_pd();
        for (unsigned i = 0; i < counts[chain]; ++i, ++off)
            s = _mm256_add_pd(
                s, _mm256_mul_pd(
                       _mm256_loadu_pd(coeff + off * 4),
                       _mm256_broadcast_sd(values + idx[off])));
        acc[chain] = s;
    }
    __m256d res = _mm256_add_pd(_mm256_add_pd(acc[0], acc[1]),
                                _mm256_add_pd(acc[2], acc[3]));
    res = _mm256_div_pd(res, _mm256_broadcast_sd(&divisor));
    _mm256_storeu_pd(out4, res);
}
#endif // GSP_HAVE_AVX2_DISPATCH

} // namespace

DotCountersSparseQuadFn
dotCountersSparseQuadAvx2Kernel()
{
#ifdef GSP_HAVE_AVX2_DISPATCH
    if (__builtin_cpu_supports("avx2"))
        return dotCountersSparseQuadAvx2;
#endif
    return nullptr;
}

DotCountersSparseQuadFn
dotCountersSparseQuadKernel()
{
    static const DotCountersSparseQuadFn fn = [] {
        DotCountersSparseQuadFn avx2 = dotCountersSparseQuadAvx2Kernel();
        return avx2 ? avx2 : dotCountersSparseQuadPortable;
    }();
    return fn;
}

CoreActivity &
CoreActivity::operator+=(const CoreActivity &o)
{
#define X(name) name += o.name;
    GSP_CORE_ACTIVITY_FIELDS(X)
#undef X
    return *this;
}

CoreActivity
CoreActivity::operator-(const CoreActivity &o) const
{
    CoreActivity r;
#define X(name) r.name = name - o.name;
    GSP_CORE_ACTIVITY_FIELDS(X)
#undef X
    return r;
}

MemActivity &
MemActivity::operator+=(const MemActivity &o)
{
#define X(name) name += o.name;
    GSP_MEM_ACTIVITY_FIELDS(X)
#undef X
    return *this;
}

MemActivity
MemActivity::operator-(const MemActivity &o) const
{
    MemActivity r;
#define X(name) r.name = name - o.name;
    GSP_MEM_ACTIVITY_FIELDS(X)
#undef X
    return r;
}

ChipActivity
ChipActivity::diff(const ChipActivity &prev) const
{
    GSP_ASSERT(cores.size() == prev.cores.size(),
               "activity snapshots of different GPUs");
    ChipActivity r;
    r.cores.resize(cores.size());
    for (size_t i = 0; i < cores.size(); ++i)
        r.cores[i] = cores[i] - prev.cores[i];
    r.mem = mem - prev.mem;
    r.cluster_busy_cycles.resize(cluster_busy_cycles.size());
    for (size_t i = 0; i < cluster_busy_cycles.size(); ++i) {
        r.cluster_busy_cycles[i] =
            cluster_busy_cycles[i] - prev.cluster_busy_cycles[i];
    }
    r.gpu_busy_cycles = gpu_busy_cycles - prev.gpu_busy_cycles;
    r.blocks_dispatched = blocks_dispatched - prev.blocks_dispatched;
    r.shader_cycles = shader_cycles - prev.shader_cycles;
    r.elapsed_s = elapsed_s - prev.elapsed_s;
    return r;
}

void
ActivityMatrix::append(const ChipActivity &act)
{
    if (n_intervals == 0 && core.empty())
        n_cores = static_cast<unsigned>(act.cores.size());
    GSP_ASSERT(act.cores.size() == n_cores,
               "activity records of different GPUs in one matrix");
    std::size_t core_base = core.size();
    core.resize(core_base + std::size_t(n_cores) * core_activity_fields);
    double *row = core.data() + core_base;
    for (const CoreActivity &c : act.cores) {
        countersToRow(c, row);
        row += core_activity_fields;
    }
    std::size_t mem_base = mem.size();
    mem.resize(mem_base + mem_activity_fields);
    countersToRow(act.mem, mem.data() + mem_base);
    ++n_intervals;
}

std::string
ChipActivity::format() const
{
    std::ostringstream oss;
    oss << "shader_cycles " << shader_cycles << "\n";
    oss << "elapsed_s " << elapsed_s << "\n";
    oss << "blocks_dispatched " << blocks_dispatched << "\n";
    oss << "gpu_busy_cycles " << gpu_busy_cycles << "\n";
    for (size_t i = 0; i < cluster_busy_cycles.size(); ++i) {
        oss << "cluster" << i << ".busy_cycles "
            << cluster_busy_cycles[i] << "\n";
    }
    CoreActivity total;
    for (const auto &c : cores)
        total += c;
    total.forEach([&](const char *name, uint64_t v) {
        oss << "cores." << name << " " << v << "\n";
    });
    mem.forEach([&](const char *name, uint64_t v) {
        oss << "mem." << name << " " << v << "\n";
    });
    return oss.str();
}

} // namespace perf
} // namespace gpusimpow
