#include "power/batched.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace gpusimpow {
namespace power {

BatchedPowerEvaluator::BatchedPowerEvaluator(
    std::vector<const GpuPowerModel *> variants)
    : _variants(std::move(variants))
{
    GSP_ASSERT(!_variants.empty(),
               "batched evaluator needs at least one variant");
    _n_cores = _variants[0]->_n_cores;

    constexpr unsigned cf = perf::core_activity_fields;
    constexpr unsigned mf = perf::mem_activity_fields;
    const std::size_t n_variants = _variants.size();
    _n_lanes = (n_variants + 3) & ~std::size_t(3);
    const std::size_t n_quads = _n_lanes / 4;

    // The counters of row length n, partitioned into the four
    // partial-sum chains of a dense four-way unrolled dot product:
    // chain k % 4 over the unrolled body, the tail appended to chain
    // 0. Built once per row length; the sparse quads keep this
    // partition so every surviving term lands in its dense chain.
    auto chainOrder = [](unsigned n) {
        std::array<std::vector<unsigned>, 4> chains;
        unsigned main = n - n % 4;
        for (unsigned k = 0; k < main; ++k)
            chains[k % 4].push_back(k);
        for (unsigned k = main; k < n; ++k)
            chains[0].push_back(k);
        return chains;
    };
    const auto core_chains = chainOrder(cf);
    const auto mem_chains = chainOrder(mf);

    // Compress one component row across a quad of four variants:
    // keep a column only when some lane's coefficient is nonzero
    // (dropping `+= 0.0 * counter` terms is bit-neutral — counters
    // are non-negative finite, so no partial sum is ever -0.0).
    auto buildQuad = [](const std::array<std::vector<unsigned>, 4>
                            &chains,
                        const std::array<const double *, 4> &lanes,
                        std::vector<int32_t> &idx_pool,
                        std::vector<double> &coeff_pool) {
        SparseQuad quad;
        quad.off = idx_pool.size();
        for (unsigned chain = 0; chain < 4; ++chain) {
            for (unsigned k : chains[chain]) {
                bool any = false;
                for (const double *lane : lanes)
                    any |= lane && lane[k] != 0.0;
                if (!any)
                    continue;
                idx_pool.push_back(static_cast<int32_t>(k));
                for (const double *lane : lanes)
                    coeff_pool.push_back(lane ? lane[k] : 0.0);
                ++quad.counts[chain];
            }
        }
        return quad;
    };

    _core_quads.reserve(n_quads * rows_per_variant);
    _mem_quads.reserve(n_quads * rows_per_variant);
    for (std::size_t q = 0; q < n_quads; ++q) {
        std::array<const GpuPowerModel *, 4> ms = {};
        for (unsigned j = 0; j < 4; ++j)
            if (q * 4 + j < n_variants)
                ms[j] = _variants[q * 4 + j];
        // Lane pointers for component r of each variant in the quad
        // (null lanes are constructor padding, all-zero).
        auto corePtr = [&](unsigned j, unsigned r) -> const double * {
            if (!ms[j])
                return nullptr;
            const CoreDynCoefficients &c = ms[j]->_core_coeff;
            switch (r) {
              case 0: return c.wcu.data();
              case 1: return c.rf.data();
              case 2: return c.eu.data();
              default: return c.ldst.data();
            }
        };
        auto memPtr = [&](unsigned j, unsigned r) -> const double * {
            if (!ms[j])
                return nullptr;
            if (r == 0)
                return ms[j]->_l2_share_coeff.data();
            constexpr UncoreComponent comps[] = {kUncoreNoc,
                                                 kUncoreMc,
                                                 kUncorePcie};
            return ms[j]->_mem_coeff[comps[r - 1]].data();
        };
        for (unsigned r = 0; r < rows_per_variant; ++r) {
            _core_quads.push_back(buildQuad(
                core_chains,
                {corePtr(0, r), corePtr(1, r), corePtr(2, r),
                 corePtr(3, r)},
                _core_idx, _core_coeff));
            _mem_quads.push_back(buildQuad(
                mem_chains,
                {memPtr(0, r), memPtr(1, r), memPtr(2, r),
                 memPtr(3, r)},
                _mem_idx, _mem_coeff));
        }
    }

    _core_base_scaled.reserve(n_variants);
    _cluster_base_scaled.reserve(n_variants);
    _sched_scaled.reserve(n_variants);
    _static_blocks.reserve(n_variants);

    for (std::size_t v = 0; v < n_variants; ++v) {
        const GpuPowerModel &m = *_variants[v];
        GSP_ASSERT(m._n_cores == _n_cores,
                   "batched variants must share the activity shape");
        _core_base_scaled.push_back(m._core_base_dyn_w *
                                    m._base_power_scale);
        _cluster_base_scaled.push_back(m._cluster_base_w *
                                       m._base_power_scale);
        _sched_scaled.push_back(m._global_sched_w *
                                m._base_power_scale);
        // At the nominal temperature the static half of an
        // evaluation is activity-independent: take it once.
        GpuPowerModel::Eval nominal;
        m.leakageAt(nullptr, nominal);
        _static_blocks.push_back(std::move(nominal.blocks));
    }
}

void
BatchedPowerEvaluator::products(const perf::ChipActivity *const *acts,
                                std::size_t n, Workspace &ws) const
{
    const perf::DotCountersSparseQuadFn quad =
        perf::dotCountersSparseQuadKernel();
    const std::size_t n_quads = _n_lanes / 4;
    const std::size_t row_stride = rowStride();
    GSP_DCHECK(_n_lanes % 4 == 0 &&
                   _core_quads.size() == n_quads * rows_per_variant &&
                   _mem_quads.size() == n_quads * rows_per_variant,
               "sparse quad stack shape mismatch: ", _n_lanes,
               " lanes, ", _core_quads.size(), "/", _mem_quads.size(),
               " quads");

    ws.acts.clear();
    for (std::size_t li = 0; li < n; ++li) {
        GSP_ASSERT(acts[li]->cores.size() == _n_cores,
                   "activity record does not match configuration");
        ws.acts.append(*acts[li]);
    }

    // The full (interval, core) x (variant, component) product via
    // the sparse SIMD quads, each output already divided by its
    // interval's elapsed time (the division every consumer of a
    // counter dot applies).
    ws.core_prod.resize(n * _n_cores * row_stride);
    ws.mem_prod.resize(n * row_stride);
    for (std::size_t li = 0; li < n; ++li) {
        const perf::ChipActivity &act = *acts[li];
        GSP_DCHECK(std::isfinite(act.elapsed_s),
                   "non-finite interval duration ", act.elapsed_s);
        double elapsed = act.elapsed_s > 0.0 ? act.elapsed_s : 1.0;
        for (unsigned c = 0; c < _n_cores; ++c) {
            const double *values = ws.acts.coreRow(li, c);
            double *outrow =
                ws.core_prod.data() + (li * _n_cores + c) * row_stride;
            for (std::size_t q = 0; q < n_quads; ++q) {
                for (unsigned r = 0; r < rows_per_variant; ++r) {
                    const SparseQuad &g =
                        _core_quads[q * rows_per_variant + r];
                    quad(values, _core_idx.data() + g.off,
                         _core_coeff.data() + g.off * 4, g.counts,
                         elapsed, outrow + r * _n_lanes + q * 4);
                }
            }
        }
        const double *values = ws.acts.memRow(li);
        double *outrow = ws.mem_prod.data() + li * row_stride;
        for (std::size_t q = 0; q < n_quads; ++q) {
            for (unsigned r = 0; r < rows_per_variant; ++r) {
                const SparseQuad &g = _mem_quads[q * rows_per_variant + r];
                quad(values, _mem_idx.data() + g.off,
                     _mem_coeff.data() + g.off * 4, g.counts, elapsed,
                     outrow + r * _n_lanes + q * 4);
            }
        }
    }
}

void
BatchedPowerEvaluator::fractions(const perf::ChipActivity &act,
                                 Workspace &ws) const
{
    ws.elapsed_s = act.elapsed_s > 0.0 ? act.elapsed_s : 1.0;
    double cycles = act.shader_cycles > 0
                        ? static_cast<double>(act.shader_cycles)
                        : 1.0;
    ws.gpu_busy_frac =
        std::min(1.0, static_cast<double>(act.gpu_busy_cycles) / cycles);
    ws.resident_frac.resize(_n_cores);
    for (unsigned c = 0; c < _n_cores; ++c)
        ws.resident_frac[c] = std::min(
            1.0, static_cast<double>(act.cores[c].cycles_resident) /
                     cycles);
    ws.cluster_frac.resize(act.cluster_busy_cycles.size());
    for (std::size_t c = 0; c < act.cluster_busy_cycles.size(); ++c)
        ws.cluster_frac[c] = std::min(
            1.0, static_cast<double>(act.cluster_busy_cycles[c]) /
                     cycles);
}

BatchedPowerEvaluator::Totals
BatchedPowerEvaluator::assemble(const perf::ChipActivity &act,
                                std::size_t li, std::size_t v,
                                const Workspace &ws, double *bd,
                                GpuPowerModel::Eval *ev) const
{
    const GpuPowerModel &m = *_variants[v];
    const std::size_t row_stride = rowStride();
    const double *q = ws.mem_prod.data() + li * row_stride + v;
    const double gpu_busy_frac = ws.gpu_busy_frac;

    // Folded per-core L2 shares (reported under each LDSTU, but they
    // heat the L2 block).
    double l2_dyn_share = m._l2_present ? q[0] : 0.0;

    // --- cores, accumulated in the traversal order of the report
    // tree so the flat totals are bit-identical to an assembled
    // PowerReport ---
    double cores_dyn = 0.0;    // "Cores" subtree dynamic total
    double analytic_dyn = 0.0; // short-circuit base (Eq. 1 share)
    double *cd = ev ? ev->core_dyn.data() : nullptr;
    for (unsigned c = 0; c < _n_cores; ++c) {
        const double *p =
            ws.core_prod.data() + (li * _n_cores + c) * row_stride + v;
        double base = _core_base_scaled[v] * ws.resident_frac[c];
        double wcu = p[0];
        double rf = p[_n_lanes];
        double eu = p[2 * _n_lanes];
        double ldst = p[3 * _n_lanes] + l2_dyn_share;
        double core_dyn_total = 0.0;
        core_dyn_total += base;
        core_dyn_total += wcu;
        core_dyn_total += rf;
        core_dyn_total += eu;
        core_dyn_total += ldst;
        core_dyn_total += 0.0; // Undiff. Core
        // Block split: the core's power lands on its cluster block,
        // with the folded L2 shares moved back to the L2 block.
        if (bd)
            bd[m.coreBlock(c)] += core_dyn_total - l2_dyn_share;
        cores_dyn += core_dyn_total;
        if (cd) {
            cd[kCoreBase] = base;
            cd[kCoreWcu] = wcu;
            cd[kCoreRf] = rf;
            cd[kCoreEu] = eu;
            cd[kCoreLdst] = ldst;
            cd[kCoreUndiff] = 0.0;
            cd += kCoreComponents;
            // Analytic components feeding the short-circuit share
            // (second term of Eq. 1): WCU, RF, LDSTU.
            analytic_dyn += wcu;
            analytic_dyn += rf;
            analytic_dyn += ldst;
        }
    }

    // Cluster activation and the global work-distribution engine
    // (SectionIII-D / Fig. 4 staircase) — the report's two extra
    // children under "Cores".
    double cluster_base_total = 0.0;
    for (double frac : ws.cluster_frac)
        cluster_base_total += _cluster_base_scaled[v] * frac;
    double sched_w = _sched_scaled[v] * gpu_busy_frac;
    cores_dyn += cluster_base_total;
    cores_dyn += sched_w;

    // --- uncore: one busy-fraction term + one product each ---
    double noc_dyn =
        m._uncore_busy_w[kUncoreNoc] * gpu_busy_frac + q[_n_lanes];
    double mc_dyn =
        m._uncore_busy_w[kUncoreMc] * gpu_busy_frac + q[2 * _n_lanes];
    double pcie_dyn =
        m._uncore_busy_w[kUncorePcie] * gpu_busy_frac + q[3 * _n_lanes];

    // Chip total in PowerReport traversal order.
    Totals t;
    t.dynamic_w += cores_dyn;
    t.dynamic_w += noc_dyn;
    t.dynamic_w += mc_dyn;
    t.dynamic_w += pcie_dyn;

    if (bd) {
        if (m._l2_present)
            bd[m._l2_block] = l2_dyn_share * m._n_cores;
        // Cluster activation lands in the cluster that earned it;
        // the global scheduler sits mid-die with the uncore
        // controllers.
        for (std::size_t c = 0; c < ws.cluster_frac.size(); ++c)
            bd[std::min<std::size_t>(c, m._clusters - 1)] +=
                _cluster_base_scaled[v] * ws.cluster_frac[c];
        double &uncore = bd[m._uncore_block];
        uncore += sched_w;
        uncore += noc_dyn;
        uncore += mc_dyn;
        uncore += pcie_dyn;
    }

    // --- external DRAM: own supply and clock, so its power is a
    // fixed (feedback-free) share of its board-level block ---
    const double elapsed = ws.elapsed_s;
    dram::DramActivity da;
    da.activates = act.mem.dram_activates;
    da.read_bursts = act.mem.dram_read_bursts;
    da.write_bursts = act.mem.dram_write_bursts;
    da.elapsed_s = elapsed;
    double total_dram_cycles = elapsed * m._dram_hz * m._dram_channels;
    double util = total_dram_cycles > 0.0
                      ? static_cast<double>(act.mem.dram_bus_cycles) /
                            total_dram_cycles
                      : 0.0;
    da.row_open_frac = std::min(1.0, 4.0 * util);
    t.dram_w = m._dram.compute(da).total();

    if (ev) {
        analytic_dyn += noc_dyn;
        analytic_dyn += mc_dyn;
        ev->elapsed_s = elapsed;
        ev->cluster_base_w = cluster_base_total;
        ev->sched_w = sched_w;
        ev->uncore_dyn = {noc_dyn, mc_dyn, pcie_dyn};
        ev->short_circuit_w = m._short_circuit_frac /
                              (1.0 + m._short_circuit_frac) *
                              analytic_dyn;
        ev->dynamic_w = t.dynamic_w;
        ev->dram_w = t.dram_w;
    }
    return t;
}

void
BatchedPowerEvaluator::evaluate(
    const std::vector<const perf::ChipActivity *> &acts,
    bool want_blocks, Workspace &ws,
    std::vector<BatchedKernelPower> &out) const
{
    GSP_TRACE_SPAN("power/batched_eval");
    static obs::Counter &c_evals = obs::Registry::instance().counter(
        "power/batched_evals",
        "batched matrix evaluations (one per kernel per group)");
    c_evals.add(1);

    const std::size_t n_variants = _variants.size();
    const std::size_t n_intervals = acts.size();
    out.resize(n_variants);
    for (std::size_t v = 0; v < n_variants; ++v) {
        BatchedKernelPower &o = out[v];
        o.n_intervals = n_intervals;
        o.n_blocks = want_blocks ? _variants[v]->_blocks.size() : 0;
        o.dynamic_w.assign(n_intervals, 0.0);
        o.dram_w.assign(n_intervals, 0.0);
        o.block_dynamic_w.assign(n_intervals * o.n_blocks, 0.0);
        o.static_blocks = _static_blocks[v];
    }

    // Tile over intervals so the workspace footprint stays bounded
    // for arbitrarily long traces while each tile's packed rows stay
    // cache-hot across the whole coefficient stack.
    constexpr std::size_t interval_tile = 32;
    for (std::size_t tile0 = 0; tile0 < n_intervals;
         tile0 += interval_tile) {
        std::size_t tile_n = std::min(interval_tile, n_intervals - tile0);
        products(acts.data() + tile0, tile_n, ws);
        for (std::size_t li = 0; li < tile_n; ++li) {
            std::size_t gi = tile0 + li;
            const perf::ChipActivity &act = *acts[gi];
            fractions(act, ws);
            for (std::size_t v = 0; v < n_variants; ++v) {
                BatchedKernelPower &o = out[v];
                double *bd = want_blocks ? o.block_dynamic_w.data() +
                                               gi * o.n_blocks
                                         : nullptr;
                Totals t = assemble(act, li, v, ws, bd, nullptr);
                o.dynamic_w[gi] = t.dynamic_w;
                o.dram_w[gi] = t.dram_w;
            }
        }
    }
}

void
BatchedPowerEvaluator::evaluateNominal(
    const perf::ChipActivity &act, Workspace &ws,
    std::span<GpuPowerModel::Eval> out) const
{
    GSP_ASSERT(out.size() == _variants.size(),
               "one Eval per variant: ", out.size(), " for ",
               _variants.size());
    const perf::ChipActivity *one = &act;
    products(&one, 1, ws);
    fractions(act, ws);
    for (std::size_t v = 0; v < _variants.size(); ++v) {
        const GpuPowerModel &m = *_variants[v];
        GpuPowerModel::Eval &ev = out[v];
        ev.core_dyn.resize(std::size_t(_n_cores) * kCoreComponents);
        ws.block_dyn.assign(m._blocks.size(), 0.0);
        assemble(act, 0, v, ws, ws.block_dyn.data(), &ev);
        m.leakageAt(nullptr, ev);
        for (std::size_t b = 0; b < ws.block_dyn.size(); ++b)
            ev.blocks[b].dynamic_w = ws.block_dyn[b];
        GSP_DCHECK(std::isfinite(ev.dynamic_w) &&
                       std::isfinite(ev.static_w) &&
                       std::isfinite(ev.dram_w),
                   "non-finite interval power totals: dyn ",
                   ev.dynamic_w, " static ", ev.static_w, " dram ",
                   ev.dram_w);
    }
}

} // namespace power
} // namespace gpusimpow
