/**
 * @file
 * Evaluator-vs-oracle equivalence: BatchedPowerEvaluator packs many
 * activity intervals and many power-model variants into dense matrix
 * kernels, but every output must be *bit-identical* to the scalar
 * per-interval reference evaluator (PowerReference in
 * tests/power_tree_reference.hh). This suite drives randomized
 * interval batches across both Table II chips, process nodes, and
 * DVFS operating points through the traced rows and the full nominal
 * Evals, checks the nominal block statics against the scalar split,
 * checks that the per-block thermal rescale the simulator applies on
 * top of the rows agrees with the reference at block temperatures,
 * and holds both sparse quad-dot kernels to the dense dot product.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "perf/activity.hh"
#include "power/batched.hh"
#include "power/chip_power.hh"
#include "power_tree_reference.hh"

using namespace gpusimpow;
using namespace gpusimpow::power;

namespace {

perf::ChipActivity
randomActivity(const GpuConfig &cfg, SplitMix64 &rng)
{
    perf::ChipActivity act;
    act.cores.resize(cfg.numCores());
    for (perf::CoreActivity &c : act.cores) {
#define X(name) c.name = rng.nextBounded(1u << 22);
        GSP_CORE_ACTIVITY_FIELDS(X)
#undef X
    }
#define X(name) act.mem.name = rng.nextBounded(1u << 24);
    GSP_MEM_ACTIVITY_FIELDS(X)
#undef X
    act.cluster_busy_cycles.resize(cfg.clusters);
    for (uint64_t &busy : act.cluster_busy_cycles)
        busy = rng.nextBounded(1u << 22);
    act.shader_cycles = 1u << 21;
    act.gpu_busy_cycles = rng.nextBounded(act.shader_cycles + 1);
    act.blocks_dispatched = rng.nextBounded(4096);
    act.elapsed_s = rng.uniform(1e-5, 5e-3);
    return act;
}

GpuConfig
configFor(const GpuConfig &base, unsigned node_nm,
          const OperatingPoint &op)
{
    GpuConfig cfg = base;
    if (node_nm != cfg.tech.node_nm) {
        cfg.tech.node_nm = node_nm;
        cfg.tech.vdd = -1.0; // node-nominal supply
    }
    op.applyTo(cfg);
    return cfg;
}

/** The power-only variant grid one timing fingerprint fans into:
 *  every (node, operating point) combination of one chip. */
std::vector<std::unique_ptr<GpuPowerModel>>
variantModels(const GpuConfig &base)
{
    const std::vector<unsigned> nodes = {40u, 28u};
    const std::vector<OperatingPoint> ops = {
        {1.0, 1.0}, {0.9, 0.8}, {1.05, 1.0}};
    std::vector<std::unique_ptr<GpuPowerModel>> models;
    for (unsigned node : nodes)
        for (const OperatingPoint &op : ops)
            models.push_back(std::make_unique<GpuPowerModel>(
                configFor(base, node, op)));
    return models;
}

std::vector<const GpuPowerModel *>
pointersOf(const std::vector<std::unique_ptr<GpuPowerModel>> &models)
{
    std::vector<const GpuPowerModel *> out;
    for (const auto &m : models)
        out.push_back(m.get());
    return out;
}

/** Bit-identity of one batched run against the per-interval scalar
 *  reference for every (variant, interval) pair. */
void
expectBatchedMatchesScalar(
    const std::vector<const GpuPowerModel *> &variants,
    const std::vector<perf::ChipActivity> &acts, bool want_blocks,
    BatchedPowerEvaluator::Workspace &ws, const std::string &tag)
{
    SCOPED_TRACE(tag);
    std::vector<const perf::ChipActivity *> ptrs;
    for (const perf::ChipActivity &a : acts)
        ptrs.push_back(&a);

    BatchedPowerEvaluator evaluator(variants);
    std::vector<BatchedKernelPower> batched;
    evaluator.evaluate(ptrs, want_blocks, ws, batched);
    ASSERT_EQ(batched.size(), variants.size());

    GpuPowerModel::Eval ev;
    for (std::size_t v = 0; v < variants.size(); ++v) {
        SCOPED_TRACE("variant " + std::to_string(v));
        const BatchedKernelPower &bp = batched[v];
        ASSERT_EQ(bp.n_intervals, acts.size());
        ASSERT_EQ(bp.dynamic_w.size(), acts.size());
        ASSERT_EQ(bp.dram_w.size(), acts.size());
        const std::size_t n_blocks = variants[v]->thermalBlocks().size();
        ASSERT_EQ(bp.static_blocks.size(), n_blocks);
        if (want_blocks) {
            ASSERT_EQ(bp.n_blocks, n_blocks);
            ASSERT_EQ(bp.block_dynamic_w.size(),
                      acts.size() * n_blocks);
        } else {
            EXPECT_EQ(bp.n_blocks, 0u);
            EXPECT_TRUE(bp.block_dynamic_w.empty());
        }

        for (std::size_t i = 0; i < acts.size(); ++i) {
            SCOPED_TRACE("interval " + std::to_string(i));
            PowerReference::evaluate(*variants[v], acts[i], nullptr, ev);
            EXPECT_EQ(bp.dynamic_w[i], ev.dynamic_w);
            EXPECT_EQ(bp.dram_w[i], ev.dram_w);
            const std::size_t dram = variants[v]->thermalBlocks().dramIndex();
            for (std::size_t b = 0; b < n_blocks; ++b) {
                if (want_blocks) {
                    EXPECT_EQ(bp.block_dynamic_w[i * n_blocks + b],
                              ev.blocks[b].dynamic_w);
                }
                // The statics the reference computes are interval-
                // independent at nominal temperature; the batched
                // result carries them once. The DRAM board block's
                // per-interval fixed share lives in dram_w instead.
                EXPECT_EQ(bp.static_blocks[b].sub_leak_w,
                          ev.blocks[b].sub_leak_w);
                if (b == dram) {
                    EXPECT_EQ(bp.static_blocks[b].fixed_w, 0.0);
                    EXPECT_EQ(ev.blocks[b].fixed_w, ev.dram_w);
                } else {
                    EXPECT_EQ(bp.static_blocks[b].fixed_w,
                              ev.blocks[b].fixed_w);
                }
            }
        }
    }
}

} // namespace

TEST(BatchedPower, RandomizedBitIdentityAcrossChipsNodesOps)
{
    const std::vector<GpuConfig> chips = {GpuConfig::gt240(),
                                          GpuConfig::gtx580()};
    SplitMix64 rng(0xBA7C4ED0ULL);
    BatchedPowerEvaluator::Workspace ws; // shared across every case

    for (const GpuConfig &base : chips) {
        auto models = variantModels(base);
        auto variants = pointersOf(models);
        // Interval counts straddling the internal tile size,
        // including the empty batch and a lone interval.
        for (std::size_t n : {std::size_t(0), std::size_t(1),
                              std::size_t(31), std::size_t(32),
                              std::size_t(77)}) {
            std::vector<perf::ChipActivity> acts;
            for (std::size_t i = 0; i < n; ++i)
                acts.push_back(randomActivity(base, rng));
            std::string tag =
                base.name + "/" + std::to_string(n) + "ivals";
            expectBatchedMatchesScalar(variants, acts, true, ws,
                                       tag + "/blocks");
            expectBatchedMatchesScalar(variants, acts, false, ws,
                                       tag + "/totals");
        }
    }
}

TEST(BatchedPower, DegenerateIntervalsTakeGuardPaths)
{
    GpuConfig cfg = GpuConfig::gtx580();
    auto models = variantModels(cfg);
    auto variants = pointersOf(models);
    BatchedPowerEvaluator::Workspace ws;

    perf::ChipActivity idle;
    idle.cores.resize(cfg.numCores());
    idle.cluster_busy_cycles.assign(cfg.clusters, 0);
    idle.shader_cycles = 1;
    idle.elapsed_s = 1.0;

    perf::ChipActivity degenerate = idle;
    degenerate.elapsed_s = 0.0; // elapsed > 0 ? ... : 1.0 guard
    degenerate.shader_cycles = 0; // cycles guard

    std::vector<perf::ChipActivity> acts = {idle, degenerate};
    expectBatchedMatchesScalar(variants, acts, true, ws, "guards");
}

TEST(BatchedPower, ThermalRescaleOfStaticsMatchesScalarMarch)
{
    // The simulator's thermal march rescales nominal block sub-leak
    // sums by subLeakScaleAt(block temperature) — identically on a
    // nominal Eval's blocks and on the batched rows. Bit-identity of
    // the batched statics with the nominal Eval (checked here and in
    // the randomized suite) is therefore exactly the replay contract.
    // The reference at block temperatures, which scales each
    // component *before* summing, may differ from the sum-then-scale
    // march by association order only — pin that relationship down
    // with a tight relative tolerance so a real modeling divergence
    // cannot hide behind it.
    GpuConfig cfg = GpuConfig::gt240();
    auto models = variantModels(cfg);
    auto variants = pointersOf(models);
    BatchedPowerEvaluator::Workspace ws;
    SplitMix64 rng(0x7E3A11ULL);

    std::vector<perf::ChipActivity> acts = {randomActivity(cfg, rng)};
    std::vector<const perf::ChipActivity *> ptrs = {&acts[0]};
    BatchedPowerEvaluator evaluator(variants);
    std::vector<BatchedKernelPower> batched;
    evaluator.evaluate(ptrs, true, ws, batched);

    GpuPowerModel::Eval nominal, at;
    for (std::size_t v = 0; v < variants.size(); ++v) {
        SCOPED_TRACE("variant " + std::to_string(v));
        const GpuPowerModel &model = *variants[v];
        std::vector<double> temps(model.thermalBlocks().size());
        for (double &t : temps)
            t = rng.uniform(310.0, 400.0);
        PowerReference::evaluate(model, acts[0], nullptr, nominal);
        PowerReference::evaluate(model, acts[0], &temps, at);
        const BatchedKernelPower &bp = batched[v];
        for (std::size_t b = 0; b < temps.size(); ++b) {
            SCOPED_TRACE("block " + std::to_string(b));
            double scale = model.subLeakScaleAt(temps[b]);
            // What the scalar march feeds the RC network...
            double scalar_leak = nominal.blocks[b].sub_leak_w * scale;
            // ...is bit-identical to the batched march's input.
            EXPECT_EQ(bp.static_blocks[b].sub_leak_w * scale,
                      scalar_leak);
            // And the component-wise reference split agrees up to
            // summation association order.
            EXPECT_NEAR(scalar_leak, at.blocks[b].sub_leak_w,
                        1e-12 * at.blocks[b].sub_leak_w + 1e-300);
            EXPECT_EQ(bp.block_dynamic_w[b], at.blocks[b].dynamic_w);
        }
    }
}

TEST(BatchedPower, WorkspaceReuseAcrossShapesIsIdempotent)
{
    // One per-worker workspace serves batches of different chips,
    // core counts, and interval counts back to back; stale tile
    // contents must never leak into a later evaluation.
    SplitMix64 rng(99);
    BatchedPowerEvaluator::Workspace ws;

    GpuConfig big = GpuConfig::gtx580();
    GpuConfig small = GpuConfig::gt240();
    auto big_models = variantModels(big);
    auto small_models = variantModels(small);
    auto big_variants = pointersOf(big_models);
    auto small_variants = pointersOf(small_models);

    std::vector<perf::ChipActivity> big_acts;
    for (int i = 0; i < 40; ++i)
        big_acts.push_back(randomActivity(big, rng));
    std::vector<perf::ChipActivity> small_acts;
    for (int i = 0; i < 7; ++i)
        small_acts.push_back(randomActivity(small, rng));

    // Dirty the workspace with the big shape, then check the small
    // one (and vice versa) against fresh scalar evaluations.
    expectBatchedMatchesScalar(big_variants, big_acts, true, ws,
                               "big-first");
    expectBatchedMatchesScalar(small_variants, small_acts, true, ws,
                               "small-after-big");
    expectBatchedMatchesScalar(big_variants, big_acts, false, ws,
                               "big-again");
}

namespace {

/** Bit-identity of two report trees, node by node. */
void
expectSameTree(const PowerNode &got, const PowerNode &want,
               const std::string &path)
{
    SCOPED_TRACE(path);
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.area_mm2, want.area_mm2);
    EXPECT_EQ(got.sub_leakage_w, want.sub_leakage_w);
    EXPECT_EQ(got.gate_leakage_w, want.gate_leakage_w);
    EXPECT_EQ(got.peak_dynamic_w, want.peak_dynamic_w);
    EXPECT_EQ(got.runtime_dynamic_w, want.runtime_dynamic_w);
    ASSERT_EQ(got.children.size(), want.children.size());
    for (std::size_t i = 0; i < want.children.size(); ++i)
        expectSameTree(got.children[i], want.children[i],
                       path + "/" + want.children[i].name);
}

/** One evaluateNominal() call over every variant against one scalar
 *  reference evaluation per variant: every Eval field and the whole
 *  assembled report. */
void
expectNominalMatchesScalar(
    const std::vector<const GpuPowerModel *> &variants,
    const perf::ChipActivity &act, BatchedPowerEvaluator::Workspace &ws,
    std::vector<GpuPowerModel::Eval> &evs, const std::string &tag)
{
    SCOPED_TRACE(tag);
    BatchedPowerEvaluator evaluator(variants);
    evs.resize(variants.size());
    evaluator.evaluateNominal(act, ws, evs);
    for (std::size_t v = 0; v < variants.size(); ++v) {
        SCOPED_TRACE("variant " + std::to_string(v));
        const GpuPowerModel &model = *variants[v];
        GpuPowerModel::Eval ref = PowerReference::evaluate(model, act);
        testref::expectSameEval(evs[v], ref);
        PowerReport got = model.assembleReport(evs[v]);
        PowerReport want = model.assembleReport(ref);
        EXPECT_EQ(got.dram_w, want.dram_w);
        EXPECT_EQ(got.short_circuit_w, want.short_circuit_w);
        EXPECT_EQ(got.elapsed_s, want.elapsed_s);
        expectSameTree(got.gpu, want.gpu, want.gpu.name);
    }
}

/** A sparse quad built the way the evaluator builds one: columns of
 *  a row of n counters partitioned into the dense dot product's four
 *  chains, all-zero columns dropped; null lanes are padding. */
struct TestQuad
{
    unsigned counts[4] = {0, 0, 0, 0};
    std::vector<int32_t> idx;
    std::vector<double> coeff;
};

TestQuad
buildTestQuad(const std::array<const std::vector<double> *, 4> &lanes,
              unsigned n)
{
    std::array<std::vector<unsigned>, 4> chains;
    for (unsigned k = 0; k < n - n % 4; ++k)
        chains[k % 4].push_back(k);
    for (unsigned k = n - n % 4; k < n; ++k)
        chains[0].push_back(k);
    TestQuad q;
    for (unsigned chain = 0; chain < 4; ++chain) {
        for (unsigned k : chains[chain]) {
            bool any = false;
            for (const std::vector<double> *lane : lanes)
                any |= lane && (*lane)[k] != 0.0;
            if (!any)
                continue;
            q.idx.push_back(static_cast<int32_t>(k));
            for (const std::vector<double> *lane : lanes)
                q.coeff.push_back(lane ? (*lane)[k] : 0.0);
            ++q.counts[chain];
        }
    }
    return q;
}

} // namespace

TEST(BatchedPower, NominalEvalsMatchScalarReferencePerVariant)
{
    // The whole-kernel path: one call of 1 interval x V variants
    // fills V full Evals (every detail field the report is assembled
    // from), each bit-identical to its own scalar evaluation. The
    // workspace also serves traced rows in between.
    SplitMix64 rng(0x40A11E7AULL);
    BatchedPowerEvaluator::Workspace ws;
    std::vector<GpuPowerModel::Eval> evs;
    for (const GpuConfig &base :
         {GpuConfig::gt240(), GpuConfig::gtx580()}) {
        auto models = variantModels(base);
        auto variants = pointersOf(models);
        perf::ChipActivity idle;
        idle.cores.resize(base.numCores());
        idle.cluster_busy_cycles.assign(base.clusters, 0);
        idle.shader_cycles = 1;
        idle.elapsed_s = 1.0;
        perf::ChipActivity degenerate = idle;
        degenerate.elapsed_s = 0.0;
        degenerate.shader_cycles = 0;
        std::vector<perf::ChipActivity> acts = {idle, degenerate};
        for (int i = 0; i < 4; ++i)
            acts.push_back(randomActivity(base, rng));
        for (std::size_t i = 0; i < acts.size(); ++i) {
            std::string tag = base.name + "/act" + std::to_string(i);
            expectNominalMatchesScalar(variants, acts[i], ws, evs, tag);
            // A lone variant (a single run's batch of one) gives the
            // same Eval as its lane of the stack.
            expectNominalMatchesScalar({variants[i % variants.size()]},
                                       acts[i], ws, evs, tag + "/one");
            expectBatchedMatchesScalar(variants, {acts[i]}, true, ws,
                                       tag + "/rows");
        }
    }
}

TEST(BatchedPower, BothQuadKernelsMatchTheDenseDotProduct)
{
    // The AVX2 kernel serves on hosts that have it and the portable
    // one everywhere else: both must reproduce the dense dot product
    // bit for bit — over every tail length, chains emptied by
    // dropped columns, columns zero in some lanes only, and padding
    // lanes.
    std::vector<perf::DotCountersSparseQuadFn> kernels = {
        perf::dotCountersSparseQuadPortable};
    if (perf::DotCountersSparseQuadFn avx2 =
            perf::dotCountersSparseQuadAvx2Kernel())
        kernels.push_back(avx2);
    EXPECT_EQ(perf::dotCountersSparseQuadKernel(), kernels.back());

    SplitMix64 rng(0x9DAD5EEDULL);
    const std::vector<unsigned> lengths = {
        1, 2, 3, 4, 5, 6, 7, 8, 11, 13, 16,
        perf::core_activity_fields, perf::mem_activity_fields};
    std::size_t quads = 0;
    std::array<std::size_t, 4> empty_chains{};
    for (unsigned n : lengths) {
        for (int trial = 0; trial < 64; ++trial) {
            SCOPED_TRACE("n " + std::to_string(n) + " trial " +
                         std::to_string(trial));
            std::vector<double> values(n);
            for (double &v : values)
                v = rng.nextBounded(4) == 0
                        ? 0.0
                        : static_cast<double>(
                              rng.next() >> (20 + rng.nextBounded(40)));
            // Columns dropped from every lane, and per-lane zeros.
            std::vector<bool> column_live(n);
            for (unsigned k = 0; k < n; ++k)
                column_live[k] = rng.nextBounded(3) != 0;
            std::array<std::vector<double>, 4> rows;
            std::array<const std::vector<double> *, 4> lanes{};
            const unsigned live_lanes = 1 + trial % 4; // rest padding
            for (unsigned j = 0; j < live_lanes; ++j) {
                rows[j].resize(n);
                for (unsigned k = 0; k < n; ++k) {
                    bool zero = !column_live[k] || rng.nextBounded(4) == 0;
                    rows[j][k] =
                        zero ? 0.0
                             : rng.uniform(0.5, 2.0) *
                                   std::pow(10.0, -double(
                                                      rng.nextBounded(16)));
                }
                lanes[j] = &rows[j];
            }
            double divisor =
                trial % 3 == 0 ? 1.0 : rng.uniform(1e-6, 5e-3);
            TestQuad q = buildTestQuad(lanes, n);
            ++quads;
            for (unsigned c = 0; c < 4; ++c)
                empty_chains[c] += q.counts[c] == 0;

            double first[4] = {0.0, 0.0, 0.0, 0.0};
            for (std::size_t kk = 0; kk < kernels.size(); ++kk) {
                SCOPED_TRACE("kernel " + std::to_string(kk));
                double out[4] = {-1.0, -1.0, -1.0, -1.0};
                kernels[kk](values.data(), q.idx.data(), q.coeff.data(),
                            q.counts, divisor, out);
                for (unsigned j = 0; j < 4; ++j) {
                    double want =
                        lanes[j] ? PowerReference::dotCountersRow(
                                       values.data(), rows[j].data(), n) /
                                       divisor
                                 : 0.0;
                    EXPECT_EQ(out[j], want) << "lane " << j;
                    if (kk == 0)
                        first[j] = out[j];
                    else
                        EXPECT_EQ(out[j], first[j]) << "lane " << j;
                }
            }
        }
    }
    // Every chain was emptied by dropped columns somewhere, or the
    // empty-chain paths went untested.
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_GT(empty_chains[c], 0u) << "chain " << c;
    EXPECT_EQ(quads, lengths.size() * 64u);
}
