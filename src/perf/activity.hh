/**
 * @file
 * Activity records: the access counts and busy-time information the
 * performance simulator produces for every modeled structure, i.e.
 * the "Activity Information" arrow between GPGPU-Sim and GPGPU-Pow
 * in Fig. 1 of the paper. The power model turns these counts into
 * the activity factors (alpha) of Eq. 1.
 *
 * The field lists are X-macros so the counters exist exactly once
 * and reporting/merging code cannot drift from the declarations.
 */

#ifndef GPUSIMPOW_PERF_ACTIVITY_HH
#define GPUSIMPOW_PERF_ACTIVITY_HH

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"

/** Per-core activity counters (one instance per SIMT core). */
#define GSP_CORE_ACTIVITY_FIELDS(X)                                     \
    X(cycles_resident)      /* cycles with >=1 resident block */        \
    X(fetch_arbitrations)   /* warp-fetch scheduler decisions */        \
    X(wst_reads)            /* warp status table reads */               \
    X(wst_writes)           /* warp status table updates */             \
    X(icache_reads)         /* I-cache accesses */                      \
    X(icache_misses)        /* I-cache misses */                        \
    X(decodes)              /* instructions decoded */                  \
    X(ibuffer_writes)       /* instruction buffer fills */              \
    X(ibuffer_reads)        /* instruction buffer drains (issue) */     \
    X(issue_arbitrations)   /* warp-issue scheduler decisions */        \
    X(scoreboard_checks)    /* scoreboard lookups at issue */           \
    X(scoreboard_writes)    /* scoreboard set/clear updates */          \
    X(reconv_reads)         /* reconvergence-stack TOS reads */         \
    X(reconv_pushes)        /* stack pushes (divergent branches) */     \
    X(reconv_pops)          /* stack pops (reconvergence) */            \
    X(rf_bank_reads)        /* register file bank read accesses */      \
    X(rf_bank_writes)       /* register file bank write accesses */     \
    X(collector_writes)     /* operand collector entry fills */         \
    X(collector_reads)      /* operand collector drains */              \
    X(rf_xbar_transfers)    /* RF crossbar operand transfers */         \
    X(issued_insts)         /* warp instructions issued */              \
    X(int_warp_insts)       /* warp instructions on the INT unit */     \
    X(fp_warp_insts)        /* warp instructions on the FP unit */      \
    X(sfu_warp_insts)       /* warp instructions on the SFU */          \
    X(mem_warp_insts)       /* warp instructions on the LDST unit */    \
    X(ctrl_warp_insts)      /* control instructions */                  \
    X(int_lane_ops)         /* per-lane integer operations */           \
    X(fp_lane_ops)          /* per-lane FP operations */                \
    X(sfu_lane_ops)         /* per-lane SFU operations */               \
    X(agu_addrs)            /* addresses generated by the AGU */        \
    X(coalescer_lookups)    /* warp accesses through the coalescer */   \
    X(coalescer_transactions) /* memory transactions after merging */   \
    X(smem_accesses)        /* SMEM/L1 array word accesses */           \
    X(smem_conflict_cycles) /* extra cycles from bank conflicts */      \
    X(l1_reads)             /* L1D lookups */                           \
    X(l1_writes)            /* L1D write accesses */                    \
    X(l1_misses)            /* L1D misses */                            \
    X(const_reads)          /* constant cache reads */                  \
    X(const_misses)         /* constant cache misses */                 \
    X(global_loads)         /* warp-level global loads */               \
    X(global_stores)        /* warp-level global stores */              \
    X(barriers)             /* BAR instructions retired */              \
    X(branches)             /* branch instructions */                   \
    X(divergent_branches)   /* branches that split the warp */          \
    X(writebacks)           /* completed instructions written back */

/** Chip-level (uncore) activity counters. */
#define GSP_MEM_ACTIVITY_FIELDS(X)                                      \
    X(noc_flits)            /* request+response+data flits */           \
    X(l2_reads)             /* L2 lookups */                            \
    X(l2_writes)            /* L2 fills/writes */                       \
    X(l2_misses)            /* L2 misses */                             \
    X(mc_requests)          /* memory controller requests */            \
    X(dram_activates)       /* DRAM row activations */                  \
    X(dram_read_bursts)     /* DRAM read bursts */                      \
    X(dram_write_bursts)    /* DRAM write bursts */                     \
    X(dram_bus_cycles)      /* DRAM data bus busy cycles */             \
    X(pcie_bytes)           /* host-interface payload bytes */

namespace gpusimpow {
namespace perf {

/** Activity of one SIMT core over an interval. */
struct CoreActivity
{
#define X(name) uint64_t name = 0;
    GSP_CORE_ACTIVITY_FIELDS(X)
#undef X

    CoreActivity &operator+=(const CoreActivity &o);
    CoreActivity operator-(const CoreActivity &o) const;

    /** Apply fn(name, value) to every counter. */
    template <typename F>
    void
    forEach(F &&fn) const
    {
#define X(name) fn(#name, name);
        GSP_CORE_ACTIVITY_FIELDS(X)
#undef X
    }
};

/** Uncore activity over an interval. */
struct MemActivity
{
#define X(name) uint64_t name = 0;
    GSP_MEM_ACTIVITY_FIELDS(X)
#undef X

    MemActivity &operator+=(const MemActivity &o);
    MemActivity operator-(const MemActivity &o) const;

    template <typename F>
    void
    forEach(F &&fn) const
    {
#define X(name) fn(#name, name);
        GSP_MEM_ACTIVITY_FIELDS(X)
#undef X
    }
};

/** Complete activity snapshot of one simulated GPU. */
struct ChipActivity
{
    /** Per-core counters. */
    std::vector<CoreActivity> cores;
    /** Uncore counters. */
    MemActivity mem;
    /** Per-cluster busy shader cycles (drives cluster base power). */
    std::vector<uint64_t> cluster_busy_cycles;
    /** Shader cycles with >=1 block anywhere (global scheduler on). */
    uint64_t gpu_busy_cycles = 0;
    /** Thread blocks dispatched. */
    uint64_t blocks_dispatched = 0;
    /** Total elapsed shader cycles in the interval. */
    uint64_t shader_cycles = 0;
    /** Interval wall-clock duration in simulated seconds. */
    double elapsed_s = 0.0;

    /** Sum of a core counter across cores. */
    template <typename Member>
    uint64_t
    sumCores(Member member) const
    {
        uint64_t total = 0;
        for (const auto &c : cores)
            total += c.*member;
        return total;
    }

    /** Element-wise difference (this - previous snapshot). */
    ChipActivity diff(const ChipActivity &prev) const;

    /** Human-readable dump of all counters. */
    std::string format() const;
};

/** Number of counters in CoreActivity (the X-macro field list). */
constexpr unsigned core_activity_fields =
#define X(name) 1 +
    GSP_CORE_ACTIVITY_FIELDS(X)
#undef X
    0;

/** Number of counters in MemActivity. */
constexpr unsigned mem_activity_fields =
#define X(name) 1 +
    GSP_MEM_ACTIVITY_FIELDS(X)
#undef X
    0;

/**
 * Compile-time index of every core counter in the X-macro declaration
 * order — the layout contract between the activity records and the
 * power model's dense coefficient rows (power/chip_power.hh).
 */
struct CoreCounterIndex
{
    enum : unsigned {
#define X(name) name,
        GSP_CORE_ACTIVITY_FIELDS(X)
#undef X
    };
};

/** Compile-time index of every uncore counter (X-macro order). */
struct MemCounterIndex
{
    enum : unsigned {
#define X(name) name,
        GSP_MEM_ACTIVITY_FIELDS(X)
#undef X
    };
};

/** Widen the core counters into a caller-provided row of
 *  core_activity_fields doubles (X-macro order) — one packed
 *  activity-matrix row. */
inline void
countersToRow(const CoreActivity &a, double *row)
{
    unsigned k = 0;
#define X(name) row[k++] = static_cast<double>(a.name);
    GSP_CORE_ACTIVITY_FIELDS(X)
#undef X
}

/** Widen the uncore counters into a caller-provided row of
 *  mem_activity_fields doubles (X-macro order). */
inline void
countersToRow(const MemActivity &a, double *row)
{
    unsigned k = 0;
#define X(name) row[k++] = static_cast<double>(a.name);
    GSP_MEM_ACTIVITY_FIELDS(X)
#undef X
}

/**
 * Four sparse dot products of one counter row against a compressed
 * coefficient quad, divided by a common divisor: lane j of out4 gets
 * dot(values, row j) / divisor.
 *
 * The quad is stored column-compressed: only counters where at least
 * one of the four rows has a nonzero coefficient are kept, idx[col]
 * naming the counter and coeff[col * 4 + j] holding row j's
 * coefficient. Columns are partitioned into the four partial-sum
 * chains of a dense four-way unrolled dot product (counts[c] columns
 * for chain c, concatenated in chain order): chain k % 4 for the
 * unrolled body, the tail counters appended to chain 0 — each
 * chain's columns in ascending counter order.
 *
 * Dropping an all-zero column drops `s += 0.0 * v` from a chain,
 * which cannot change any bit: counters are non-negative finite, so
 * products and partial sums are never -0.0 and x + 0.0 == x. Every
 * surviving term lands in the same chain, in the same order, and the
 * fold is the same (s0+s1)+(s2+s3), so each lane is bit-identical to
 * the dense dot product — the scalar reference evaluator's
 * (tests/power_tree_reference.hh), which test_batched_power holds
 * both quad kernels to.
 */
inline void
dotCountersSparseQuadPortable(const double *values, const int32_t *idx,
                              const double *coeff,
                              const unsigned counts[4], double divisor,
                              double *out4)
{
    GSP_DCHECK(divisor != 0.0 && std::isfinite(divisor),
               "bad quad-dot divisor ", divisor);
    double acc[4][4] = {{0.0, 0.0, 0.0, 0.0},
                        {0.0, 0.0, 0.0, 0.0},
                        {0.0, 0.0, 0.0, 0.0},
                        {0.0, 0.0, 0.0, 0.0}};
    std::size_t off = 0;
    for (unsigned chain = 0; chain < 4; ++chain) {
        for (unsigned i = 0; i < counts[chain]; ++i, ++off) {
            GSP_DCHECK(idx[off] >= 0,
                       "negative counter index in sparse quad column ",
                       off);
            double v = values[idx[off]];
            for (unsigned j = 0; j < 4; ++j)
                acc[chain][j] += coeff[off * 4 + j] * v;
        }
    }
    for (unsigned j = 0; j < 4; ++j) {
        out4[j] = ((acc[0][j] + acc[1][j]) +
                   (acc[2][j] + acc[3][j])) /
                  divisor;
        GSP_DCHECK(std::isfinite(out4[j]),
                   "non-finite sparse quad-dot lane ", j);
    }
}

/** Signature of a sparse quad-dot kernel
 *  (see dotCountersSparseQuadPortable). */
using DotCountersSparseQuadFn = void (*)(const double *,
                                         const int32_t *,
                                         const double *,
                                         const unsigned *, double,
                                         double *);

/** The AVX2 packed sparse quad-dot kernel, or null when this build
 *  or this CPU lacks AVX2 (runtime dispatched, so the binary itself
 *  stays baseline x86-64). Bit-identical to the portable loop. */
DotCountersSparseQuadFn dotCountersSparseQuadAvx2Kernel();

/** The best sparse quad-dot kernel for this machine: the AVX2 one
 *  when available, else dotCountersSparseQuadPortable. */
DotCountersSparseQuadFn dotCountersSparseQuadKernel();

/**
 * SoA activity matrix: the counters of many ChipActivity records
 * packed into dense rows — one row of core_activity_fields doubles
 * per (interval, core) and one row of mem_activity_fields doubles
 * per interval, each in the countersToRow() X-macro column order.
 * Packing happens once per batch and the rows then feed any number
 * of stacked coefficient quads through the sparse quad-dot kernel,
 * which is what makes multi-variant evaluation a matrix product
 * (power::BatchedPowerEvaluator).
 */
struct ActivityMatrix
{
    /** Cores per interval (fixed across appended records). */
    unsigned n_cores = 0;
    /** Intervals packed so far. */
    std::size_t n_intervals = 0;
    /** Core rows, [interval * n_cores + core][core_activity_fields]. */
    std::vector<double> core;
    /** Uncore rows, [interval][mem_activity_fields]. */
    std::vector<double> mem;

    /** Drop all rows but keep the capacity for reuse. */
    void
    clear()
    {
        n_cores = 0;
        n_intervals = 0;
        core.clear();
        mem.clear();
    }

    /** Pack one record's counters as the next interval's rows. */
    void append(const ChipActivity &act);

    const double *
    coreRow(std::size_t interval, unsigned c) const
    {
        return core.data() +
               (interval * n_cores + c) * core_activity_fields;
    }

    const double *
    memRow(std::size_t interval) const
    {
        return mem.data() + interval * mem_activity_fields;
    }
};

} // namespace perf
} // namespace gpusimpow

#endif // GPUSIMPOW_PERF_ACTIVITY_HH
