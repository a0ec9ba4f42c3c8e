#include "perf/activity.hh"

#include <cmath>
#include <cstdlib>
#include <ostream>
#include <sstream>

#include "common/logging.hh"
#include "common/strutil.hh"

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
ChipActivity::serialize(std::ostream &out) const
{
    out << "chip-activity " << cores.size() << ' '
        << cluster_busy_cycles.size() << ' ' << core_activity_fields
        << ' ' << mem_activity_fields << '\n';
    for (const CoreActivity &c : cores) {
        out << "core";
        c.forEach([&](const char *, uint64_t v) { out << ' ' << v; });
        out << '\n';
    }
    out << "mem";
    mem.forEach([&](const char *, uint64_t v) { out << ' ' << v; });
    out << '\n';
    out << "clusters";
    for (uint64_t v : cluster_busy_cycles)
        out << ' ' << v;
    out << '\n';
    out << "totals " << gpu_busy_cycles << ' ' << blocks_dispatched
        << ' ' << shader_cycles << ' ' << strformat("%a", elapsed_s)
        << '\n';
}

ChipActivity
ChipActivity::parse(TextCursor &in)
{
    // Counts size containers, so a corrupted record must fail with
    // the malformed-record fatal(), not an uncaught length_error /
    // bad_alloc out of resize(). No real GPU is within orders of
    // magnitude of this bound.
    constexpr uint64_t max_count = 1u << 20;
    in.expect("chip-activity");
    uint64_t n_cores = in.u64("core count");
    uint64_t n_clusters = in.u64("cluster count");
    uint64_t n_core_fields = in.u64("core field count");
    uint64_t n_mem_fields = in.u64("mem field count");
    if (n_cores > max_count || n_clusters > max_count)
        fatal("malformed activity record: implausible core/cluster "
              "count ", n_cores, "/", n_clusters);
    if (n_core_fields != core_activity_fields ||
        n_mem_fields != mem_activity_fields)
        fatal("activity record schema mismatch: record has ",
              n_core_fields, "/", n_mem_fields,
              " core/mem counters, this build expects ",
              core_activity_fields, "/", mem_activity_fields);

    ChipActivity act;
    act.cores.resize(n_cores);
    for (CoreActivity &c : act.cores) {
        in.expect("core");
#define X(name) c.name = in.u64(#name);
        GSP_CORE_ACTIVITY_FIELDS(X)
#undef X
    }
    in.expect("mem");
#define X(name) act.mem.name = in.u64(#name);
    GSP_MEM_ACTIVITY_FIELDS(X)
#undef X
    in.expect("clusters");
    act.cluster_busy_cycles.resize(n_clusters);
    for (uint64_t &v : act.cluster_busy_cycles)
        v = in.u64("cluster busy cycles");
    in.expect("totals");
    act.gpu_busy_cycles = in.u64("gpu_busy_cycles");
    act.blocks_dispatched = in.u64("blocks_dispatched");
    act.shader_cycles = in.u64("shader_cycles");
    act.elapsed_s = in.f64("elapsed_s");
    // A duration: NaN/Inf or negative values are corruption, and
    // they would silently poison every downstream rate division.
    if (!std::isfinite(act.elapsed_s) || act.elapsed_s < 0.0)
        fatal("malformed activity record: elapsed_s ", act.elapsed_s,
              " is not a finite non-negative duration");
    return act;
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
