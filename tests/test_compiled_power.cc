/**
 * @file
 * Production-vs-oracle and flat-vs-tree equivalence of one
 * evaluation of the flat power model GpuPowerModel builds (the suite
 * keeps its "CompiledPower" name from the class that once held the
 * flat arrays): the evaluator's nominal output (the model's own
 * evaluator, a batch of one), rescaled to block temperatures by
 * GpuPowerModel::rescaleLeakageAt, must be *bit-identical* to
 * the scalar reference evaluator (tests/power_tree_reference.hh),
 * and the hierarchical PowerReport assembled from it must reproduce
 * the flat totals and per-thermal-block splits exactly. This suite
 * drives randomized activity vectors across both Table II chips,
 * process nodes, DVFS operating points, and per-block temperature
 * vectors (the cooling axis collapses onto block temperatures as far
 * as the power model is concerned), and asserts exact equality
 * everywhere.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>
#include <vector>

#include "common/random.hh"
#include "perf/activity.hh"
#include "power/batched.hh"
#include "power/chip_power.hh"
#include "power/report.hh"
#include "power_tree_reference.hh"

using namespace gpusimpow;
using namespace gpusimpow::power;

// The model's evaluator points at the model itself: a copy or a move
// would leave the evaluator reading the source object.
static_assert(!std::is_copy_constructible_v<GpuPowerModel> &&
              !std::is_copy_assignable_v<GpuPowerModel>);
static_assert(!std::is_move_constructible_v<GpuPowerModel> &&
              !std::is_move_assignable_v<GpuPowerModel>);

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

std::vector<double>
randomTemps(std::size_t blocks, SplitMix64 &rng)
{
    std::vector<double> temps(blocks);
    for (double &t : temps)
        t = rng.uniform(310.0, 400.0);
    return temps;
}

/** Full bit-identity check of one (model, activity, temps) case. */
void
expectEquivalent(const GpuConfig &cfg, const GpuPowerModel &model,
                 const perf::ChipActivity &act,
                 const std::vector<double> &temps,
                 const std::string &tag)
{
    SCOPED_TRACE(tag);

    // The production evaluation: nominal through the evaluator, then
    // the leakage rescale thermal rows apply at block temperatures.
    GpuPowerModel::Eval ev = testref::evaluateNominal(model, act);
    PowerReport rep;
    if (temps.empty()) {
        rep = model.evaluate(act);
    } else {
        model.rescaleLeakageAt(temps, ev);
        rep = model.assembleReport(ev);
    }

    // Production vs the scalar reference evaluator: bit-identical in
    // every field.
    {
        SCOPED_TRACE("vs scalar reference");
        testref::expectSameEval(ev,
                                PowerReference::evaluate(model, act, temps));
    }

    // Flat totals vs recursive tree totals: bit-identical.
    EXPECT_EQ(ev.dynamic_w, rep.dynamicPower());
    EXPECT_EQ(ev.static_w, rep.staticPower());
    EXPECT_EQ(ev.dram_w, rep.dram_w);
    EXPECT_EQ(ev.short_circuit_w, rep.short_circuit_w);
    EXPECT_EQ(ev.elapsed_s, rep.elapsed_s);

    // Flat block split vs the legacy tree walk: bit-identical.
    std::vector<BlockPower> tree_bp =
        PowerReference::treeBlockPowers(cfg, model, rep, act, temps);
    ASSERT_EQ(ev.blocks.size(), tree_bp.size());
    for (std::size_t b = 0; b < tree_bp.size(); ++b) {
        SCOPED_TRACE("block " + std::to_string(b));
        EXPECT_EQ(ev.blocks[b].dynamic_w, tree_bp[b].dynamic_w);
        EXPECT_EQ(ev.blocks[b].sub_leak_w, tree_bp[b].sub_leak_w);
        EXPECT_EQ(ev.blocks[b].fixed_w, tree_bp[b].fixed_w);
    }

    // Per-component node values vs the flat detail arrays.
    for (unsigned i = 0; i < cfg.numCores(); ++i) {
        const PowerNode *core =
            rep.gpu.find("Cores/Core" + std::to_string(i));
        ASSERT_NE(core, nullptr);
        const double *cd = ev.core_dyn.data() +
                           static_cast<std::size_t>(i) *
                               kCoreComponents;
        const double *cs = ev.core_sub.data() +
                           static_cast<std::size_t>(i) *
                               kCoreComponents;
        EXPECT_EQ(core->find("Base Power")->runtime_dynamic_w,
                  cd[kCoreBase]);
        EXPECT_EQ(core->find("WCU")->runtime_dynamic_w, cd[kCoreWcu]);
        EXPECT_EQ(core->find("WCU")->sub_leakage_w, cs[kCoreWcu]);
        EXPECT_EQ(core->find("Register File")->runtime_dynamic_w,
                  cd[kCoreRf]);
        EXPECT_EQ(core->find("Execution Units")->runtime_dynamic_w,
                  cd[kCoreEu]);
        EXPECT_EQ(core->find("LDSTU")->runtime_dynamic_w,
                  cd[kCoreLdst]);
        EXPECT_EQ(core->find("LDSTU")->sub_leakage_w, cs[kCoreLdst]);
        EXPECT_EQ(core->find("Undiff. Core")->sub_leakage_w,
                  cs[kCoreUndiff]);
    }
    EXPECT_EQ(rep.gpu.find("Cores/Cluster Base")->runtime_dynamic_w,
              ev.cluster_base_w);
    EXPECT_EQ(rep.gpu.find("Cores/Global Scheduler")->runtime_dynamic_w,
              ev.sched_w);
    EXPECT_EQ(rep.gpu.find("NoC")->runtime_dynamic_w,
              ev.uncore_dyn[kUncoreNoc]);
    EXPECT_EQ(rep.gpu.find("Memory Controller")->runtime_dynamic_w,
              ev.uncore_dyn[kUncoreMc]);
    EXPECT_EQ(rep.gpu.find("PCIe Controller")->runtime_dynamic_w,
              ev.uncore_dyn[kUncorePcie]);

    // The block split partitions the report's total power. The
    // partition sums in a different association order than the tree,
    // so this one is a (tight) tolerance check, not bit-identity.
    double total = 0.0;
    for (const BlockPower &b : ev.blocks)
        total += b.total();
    double expected = rep.totalPower() + rep.dram_w;
    EXPECT_NEAR(total, expected, 1e-12 * expected);
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

} // namespace

TEST(CompiledPower, RandomizedEquivalenceAcrossChipsNodesOpsTemps)
{
    const std::vector<GpuConfig> chips = {GpuConfig::gt240(),
                                          GpuConfig::gtx580()};
    const std::vector<unsigned> nodes = {40u, 28u};
    const std::vector<OperatingPoint> ops = {
        {1.0, 1.0}, {0.9, 0.8}, {1.05, 1.0}};
    SplitMix64 rng(0xC0DE5EEDULL);

    for (const GpuConfig &base : chips) {
        for (unsigned node : nodes) {
            for (const OperatingPoint &op : ops) {
                GpuConfig cfg = configFor(base, node, op);
                GpuPowerModel model(cfg);
                std::string tag =
                    base.name + "/" + std::to_string(node) + "nm/" +
                    op.label();
                std::size_t blocks =
                    model.thermalBlocks().size();
                for (int rep = 0; rep < 3; ++rep) {
                    perf::ChipActivity act =
                        randomActivity(cfg, rng);
                    expectEquivalent(cfg, model, act, {},
                                     tag + "/nominal");
                    expectEquivalent(cfg, model, act,
                                     randomTemps(blocks, rng),
                                     tag + "/temps");
                }
            }
        }
    }
}

TEST(CompiledPower, IdleAndDegenerateIntervals)
{
    GpuConfig cfg = GpuConfig::gtx580();
    GpuPowerModel model(cfg);

    perf::ChipActivity idle;
    idle.cores.resize(cfg.numCores());
    idle.cluster_busy_cycles.assign(cfg.clusters, 0);
    idle.shader_cycles = 1;
    idle.elapsed_s = 1.0;
    expectEquivalent(cfg, model, idle, {}, "idle");

    // Zero elapsed time and zero cycles take the guard paths.
    perf::ChipActivity degenerate = idle;
    degenerate.elapsed_s = 0.0;
    degenerate.shader_cycles = 0;
    expectEquivalent(cfg, model, degenerate, {}, "degenerate");
}

TEST(CompiledPower, EvalWorkspaceReuseIsIdempotent)
{
    GpuConfig cfg = GpuConfig::gt240();
    GpuPowerModel model(cfg);
    SplitMix64 rng(42);
    perf::ChipActivity a = randomActivity(cfg, rng);
    perf::ChipActivity b = randomActivity(cfg, rng);

    // One Eval and one workspace serve every evaluation; a leakage
    // rescale in between must not leak into the next nominal one.
    const BatchedPowerEvaluator &evaluator = model.evaluator();
    BatchedPowerEvaluator::Workspace ws;
    GpuPowerModel::Eval reused;
    evaluator.evaluateNominal(a, ws, {&reused, 1});
    std::vector<double> hot(model.thermalBlocks().size(), 380.0);
    model.rescaleLeakageAt(hot, reused);
    evaluator.evaluateNominal(b, ws, {&reused, 1}); // overwrite with b
    evaluator.evaluateNominal(a, ws, {&reused, 1}); // and back to a

    testref::expectSameEval(reused, testref::evaluateNominal(model, a));
}

TEST(CompiledPower, NominalTemperatureVectorMatchesPlainEvaluate)
{
    GpuConfig cfg = GpuConfig::gtx580();
    GpuPowerModel model(cfg);
    SplitMix64 rng(7);
    perf::ChipActivity act = randomActivity(cfg, rng);

    std::vector<double> nominal(model.thermalBlocks().size(),
                                cfg.tech.temperature);
    GpuPowerModel::Eval plain = testref::evaluateNominal(model, act);
    GpuPowerModel::Eval at_nominal = plain;
    model.rescaleLeakageAt(nominal, at_nominal);
    EXPECT_EQ(plain.dynamic_w, at_nominal.dynamic_w);
    EXPECT_EQ(plain.static_w, at_nominal.static_w);
    for (std::size_t i = 0; i < plain.blocks.size(); ++i) {
        EXPECT_EQ(plain.blocks[i].sub_leak_w,
                  at_nominal.blocks[i].sub_leak_w);
    }
    testref::expectSameEval(at_nominal, plain);
}

TEST(CompiledPower, CoefficientRowsMatchCounterLayout)
{
    // The layout contract: coefficient rows are addressed by the
    // X-macro counter indices. A single-counter activity must charge
    // exactly counter * coefficient / elapsed.
    GpuConfig cfg = GpuConfig::gt240();
    GpuPowerModel model(cfg);
    const CoreDynCoefficients &c =
        PowerReference::coreCoefficients(model);

    perf::ChipActivity act;
    act.cores.resize(cfg.numCores());
    act.cluster_busy_cycles.assign(cfg.clusters, 0);
    act.shader_cycles = 1000;
    act.elapsed_s = 1e-3;
    act.cores[0].int_lane_ops = 1000000;

    GpuPowerModel::Eval ev = testref::evaluateNominal(model, act);
    double expected =
        1000000.0 *
        c.eu[perf::CoreCounterIndex::int_lane_ops] / act.elapsed_s;
    EXPECT_EQ(ev.core_dyn[kCoreEu], expected);
    // 40 pJ per INT lane-op at the identity operating point.
    EXPECT_NEAR(c.eu[perf::CoreCounterIndex::int_lane_ops], 40e-12,
                1e-18);
}
