/**
 * @file
 * Closed-loop thermal subsystem tests: temperature-leakage
 * monotonicity, RC network solutions (linear, steady-state
 * fixed-point, transient), runaway detection, block power/report
 * consistency, golden identity at the pinned default cooling, the
 * DVFS throttling governor, configuration validation of the new
 * thermal parameters, and thermal-state hygiene across recycle().
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <thread>

#include "common/logging.hh"
#include "config/gpu_config.hh"
#include "obs/metrics.hh"
#include "power/chip_power.hh"
#include "sim/engine.hh"
#include "tech/tech.hh"
#include "thermal/thermal.hh"
#include "workloads/workload.hh"

using namespace gpusimpow;

namespace {

/** A tiny two-die-block network for direct solver checks. */
thermal::BlockSet
tinyBlocks()
{
    thermal::BlockSet set;
    set.names = {"cluster0", "uncore", "dram"};
    set.area_mm2 = {50.0, 10.0, 0.0};
    set.num_clusters = 1;
    set.has_l2 = false;
    return set;
}

ThermalConfig
tinyCooling()
{
    ThermalConfig tc;
    tc.enabled = true;
    tc.r_heatsink_k_per_w = 0.5;
    return tc;
}

sim::ScenarioResult
runScenario(GpuConfig cfg, const std::string &workload)
{
    sim::Scenario s;
    s.config = std::move(cfg);
    s.workload = workload;
    return sim::SimulationEngine().runScenario(s);
}

} // namespace

// ---------------------------------------------------------------- tech

TEST(ThermalTech, TempLeakFactorIsOneAtCharacterizationPoint)
{
    EXPECT_DOUBLE_EQ(tech::tempLeakFactorAt(300.0), 1.0);
    // Doubles every 20 K, the rule of thumb the model states.
    EXPECT_NEAR(tech::tempLeakFactorAt(320.0), 2.0, 1e-12);
    EXPECT_NEAR(tech::tempLeakFactorAt(340.0), 4.0, 1e-12);
}

TEST(ThermalTech, TempLeakFactorIsStrictlyMonotonic)
{
    double prev = 0.0;
    for (double t = 280.0; t <= 420.0; t += 5.0) {
        double f = tech::tempLeakFactorAt(t);
        EXPECT_GT(f, prev) << "at " << t << " K";
        prev = f;
    }
}

TEST(ThermalTech, LeakageIsMonotonicInJunctionTemperature)
{
    double prev = 0.0;
    for (double t : {310.0, 330.0, 350.0, 370.0, 390.0}) {
        tech::TechNode node = tech::TechNode::make(40, -1.0, t);
        double leak = node.leakage(1000.0);
        EXPECT_GT(leak, prev) << "at " << t << " K";
        prev = leak;
        EXPECT_DOUBLE_EQ(node.tempLeakFactor(),
                         tech::tempLeakFactorAt(t));
    }
}

TEST(ThermalTech, MakeRejectsNonPhysicalTemperatures)
{
    EXPECT_THROW(tech::TechNode::make(40, -1.0, 0.0), FatalError);
    EXPECT_THROW(tech::TechNode::make(40, -1.0, -10.0), FatalError);
    EXPECT_THROW(tech::TechNode::make(40, -1.0, 501.0), FatalError);
}

// ------------------------------------------------------------ validation

TEST(ThermalConfigValidation, RejectsNonPhysicalTechTemperature)
{
    GpuConfig cfg = GpuConfig::gt240();
    cfg.tech.temperature = 0.0;
    EXPECT_THROW(GpuConfig::fromXml(cfg.toXml()), FatalError);
    cfg.tech.temperature = -50.0;
    EXPECT_THROW(GpuConfig::fromXml(cfg.toXml()), FatalError);
    cfg.tech.temperature = 650.0;
    EXPECT_THROW(GpuConfig::fromXml(cfg.toXml()), FatalError);
    cfg.tech.temperature = 350.0;
    EXPECT_NO_THROW(GpuConfig::fromXml(cfg.toXml()));
}

TEST(ThermalConfigValidation, RejectsBadThermalParameters)
{
    GpuConfig cfg = GpuConfig::gt240();
    cfg.thermal.ambient_k = 150.0; // below the plausible range
    EXPECT_THROW(GpuConfig::fromXml(cfg.toXml()), FatalError);

    cfg = GpuConfig::gt240();
    cfg.thermal.t_limit_k = cfg.thermal.ambient_k - 1.0;
    EXPECT_THROW(GpuConfig::fromXml(cfg.toXml()), FatalError);

    cfg = GpuConfig::gt240();
    cfg.thermal.cooling_scale = 0.0;
    EXPECT_THROW(GpuConfig::fromXml(cfg.toXml()), FatalError);

    cfg = GpuConfig::gt240();
    cfg.thermal.r_dram_k_per_w = -1.0;
    EXPECT_THROW(GpuConfig::fromXml(cfg.toXml()), FatalError);

    cfg = GpuConfig::gt240();
    cfg.thermal.throttle = true; // throttle without the subsystem
    EXPECT_THROW(GpuConfig::fromXml(cfg.toXml()), FatalError);
    cfg.thermal.enabled = true;
    EXPECT_NO_THROW(GpuConfig::fromXml(cfg.toXml()));
}

TEST(ThermalConfigValidation, ThermalSectionSurvivesXmlRoundTrip)
{
    GpuConfig a = GpuConfig::gtx580();
    a.thermal.applyCooling("constrained");
    a.thermal.throttle = true;
    a.thermal.ambient_k = 325.0;
    a.thermal.t_limit_k = 355.0;
    GpuConfig b = GpuConfig::fromXml(a.toXml());
    EXPECT_EQ(b.thermal.enabled, true);
    EXPECT_EQ(b.thermal.throttle, true);
    EXPECT_EQ(b.thermal.cooling, "constrained");
    EXPECT_DOUBLE_EQ(b.thermal.cooling_scale,
                     a.thermal.cooling_scale);
    EXPECT_DOUBLE_EQ(b.thermal.ambient_k, 325.0);
    EXPECT_DOUBLE_EQ(b.thermal.t_limit_k, 355.0);
    EXPECT_EQ(a.toXml(), b.toXml());
}

TEST(ThermalConfigValidation, CoolingPresetsAreKnownAndDistinct)
{
    ThermalConfig stock, constrained, liquid;
    stock.applyCooling("stock");
    constrained.applyCooling("constrained");
    liquid.applyCooling("liquid");
    EXPECT_TRUE(stock.enabled);
    EXPECT_LT(liquid.cooling_scale, stock.cooling_scale);
    EXPECT_GT(constrained.cooling_scale, stock.cooling_scale);

    ThermalConfig bad;
    EXPECT_THROW(bad.applyCooling("peltier"), FatalError);
    EXPECT_EQ(ThermalConfig::coolingPresets().size(), 3u);
}

// --------------------------------------------------------------- network

TEST(ThermalNetwork, LinearSolveMatchesHandComputedSeriesPath)
{
    thermal::BlockSet set = tinyBlocks();
    ThermalConfig tc = tinyCooling();
    // Decouple the two die blocks so each is a pure series path:
    // block -> heatsink -> ambient.
    tc.r_lateral_k_per_w = 1e12;
    thermal::ThermalNetwork net(set, tc);

    std::vector<double> temps = net.solveLinear({30.0, 0.0, 4.0});
    // Heatsink carries the total die power: T_hs = amb + P * R_hs.
    double t_hs = tc.ambient_k + 30.0 * 0.5;
    EXPECT_NEAR(temps[3], t_hs, 1e-9);
    // Cluster0 adds its vertical rise: P * r_die / area.
    EXPECT_NEAR(temps[0], t_hs + 30.0 * tc.r_die_k_mm2_per_w / 50.0,
                1e-9);
    // The unpowered uncore floats at the heatsink temperature.
    EXPECT_NEAR(temps[1], t_hs, 1e-9);
    // DRAM has its own board path, untouched by die power.
    EXPECT_NEAR(temps[2], tc.ambient_k + 4.0 * tc.r_dram_k_per_w,
                1e-9);
}

TEST(ThermalNetwork, SteadyStateConvergesOnStableFeedback)
{
    thermal::ThermalNetwork net(tinyBlocks(), tinyCooling());
    // Affine leakage feedback with loop gain well below one.
    auto power_at = [](const std::vector<double> &temps) {
        return std::vector<double>{
            20.0 + 0.05 * (temps[0] - 300.0), 2.0, 3.0};
    };
    thermal::SteadyResult s = net.solveSteady(power_at);
    EXPECT_TRUE(s.converged);
    EXPECT_LT(s.iterations, 200u);
    // At the fixed point the solved temps reproduce themselves.
    std::vector<double> check = net.solveLinear(power_at(s.temps_k));
    for (std::size_t i = 0; i < s.temps_k.size(); ++i)
        EXPECT_NEAR(check[i], s.temps_k[i], 1e-3);
    EXPECT_GT(s.maxTemp(), net.ambient());
}

TEST(ThermalNetwork, SteadyStateDetectsThermalRunaway)
{
    thermal::ThermalNetwork net(tinyBlocks(), tinyCooling());
    // Leakage that doubles per 10 K with a heavy base: gain >> 1.
    auto power_at = [](const std::vector<double> &temps) {
        return std::vector<double>{
            80.0 * std::pow(2.0, (temps[0] - 300.0) / 10.0), 0.0,
            0.0};
    };
    thermal::SteadyResult s = net.solveSteady(power_at);
    EXPECT_FALSE(s.converged);
    EXPECT_DOUBLE_EQ(s.maxTemp(),
                     thermal::ThermalNetwork::runaway_cap_k);
}

TEST(ThermalNetwork, TransientApproachesSteadyStateOnConstantPower)
{
    thermal::ThermalNetwork net(tinyBlocks(), tinyCooling());
    std::vector<double> powers{25.0, 3.0, 4.0};
    std::vector<double> steady = net.solveLinear(powers);

    // Integrate forward in explicit sub-second chunks.
    thermal::ThermalNetwork::State state = net.ambientState();
    for (int i = 0; i < 4000; ++i)
        net.advance(state, powers, 0.25);
    for (std::size_t i = 0; i < state.temps_k.size(); ++i)
        EXPECT_NEAR(state.temps_k[i], steady[i], 0.5) << "node " << i;

    // A span dwarfing every time constant snaps to the same answer.
    thermal::ThermalNetwork::State jump = net.ambientState();
    net.advance(jump, powers, 1e9);
    for (std::size_t i = 0; i < jump.temps_k.size(); ++i)
        EXPECT_NEAR(jump.temps_k[i], steady[i], 1e-6) << "node " << i;
}

TEST(ThermalNetwork, TransientIsMonotonicFromColdStartAndStable)
{
    thermal::ThermalNetwork net(tinyBlocks(), tinyCooling());
    EXPECT_GT(net.maxStableDt(), 0.0);
    thermal::ThermalNetwork::State state = net.ambientState();
    std::vector<double> powers{25.0, 3.0, 4.0};
    double prev = state.temps_k[0];
    for (int i = 0; i < 50; ++i) {
        // Steps far above the stability bound must substep, not blow
        // up into oscillation.
        net.advance(state, powers, 100.0 * net.maxStableDt());
        EXPECT_GE(state.temps_k[0], prev - 1e-9);
        EXPECT_LT(state.temps_k[0],
                  thermal::ThermalNetwork::runaway_cap_k);
        prev = state.temps_k[0];
    }
}

// -------------------------------------------------- power/report coupling

TEST(ThermalPower, BlockPowersPartitionTheReportExactly)
{
    for (const GpuConfig &cfg :
         {GpuConfig::gt240(), GpuConfig::gtx580()}) {
        sim::ScenarioResult r = runScenario(cfg, "blackscholes");
        const KernelRun &run = r.kernels.at(0).run;
        power::GpuPowerModel model(cfg);
        std::vector<power::BlockPower> bp =
            model.blockPowers(run.perf.activity);
        thermal::BlockSet set = model.thermalBlocks();
        ASSERT_EQ(bp.size(), set.size());

        double total = 0.0;
        for (const power::BlockPower &b : bp) {
            EXPECT_GE(b.dynamic_w, -1e-12);
            EXPECT_GE(b.sub_leak_w, -1e-12);
            total += b.total();
        }
        double expected = run.report.totalPower() + run.report.dram_w;
        EXPECT_NEAR(total, expected, 1e-9 * expected);
        // The DRAM block carries exactly the off-chip DRAM power.
        EXPECT_NEAR(bp[set.dramIndex()].total(), run.report.dram_w,
                    1e-12);
    }
}

TEST(ThermalPower, ThermalBlockAreasCoverTheDie)
{
    for (const GpuConfig &cfg :
         {GpuConfig::gt240(), GpuConfig::gtx580()}) {
        power::GpuPowerModel model(cfg);
        thermal::BlockSet set = model.thermalBlocks();
        EXPECT_EQ(set.num_clusters, cfg.clusters);
        EXPECT_EQ(set.has_l2, cfg.l2.present);
        EXPECT_EQ(set.size(),
                  cfg.clusters + (cfg.l2.present ? 1 : 0) + 2);
        double die = 0.0;
        for (std::size_t i = 0; i < set.numDie(); ++i)
            die += set.area_mm2[i];
        // Within a few percent of the reported chip area (the NoC is
        // wiring over other blocks, not a separate footprint).
        EXPECT_NEAR(die, model.area(), 0.15 * model.area());
    }
}

TEST(ThermalPower, EvaluateAtNominalTemperatureIsBitIdentical)
{
    GpuConfig cfg = GpuConfig::gtx580();
    sim::ScenarioResult r = runScenario(cfg, "blackscholes");
    const KernelRun &run = r.kernels.at(0).run;
    power::GpuPowerModel model(cfg);
    thermal::BlockSet set = model.thermalBlocks();

    std::vector<double> nominal(set.size(), cfg.tech.temperature);
    power::PowerReport at =
        model.evaluateAt(run.perf.activity, nominal);
    power::PowerReport plain = model.evaluate(run.perf.activity);
    EXPECT_EQ(at.gpu.flatten(), plain.gpu.flatten());
}

TEST(ThermalPower, EvaluateAtScalesLeakageWithBlockTemperature)
{
    GpuConfig cfg = GpuConfig::gt240();
    sim::ScenarioResult r = runScenario(cfg, "matmul");
    const KernelRun &run = r.kernels.at(0).run;
    power::GpuPowerModel model(cfg);
    thermal::BlockSet set = model.thermalBlocks();

    std::vector<double> hot(set.size(), 370.0);
    std::vector<double> cold(set.size(), 330.0);
    power::PowerReport hot_rep =
        model.evaluateAt(run.perf.activity, hot);
    power::PowerReport cold_rep =
        model.evaluateAt(run.perf.activity, cold);
    power::PowerReport nom_rep = model.evaluate(run.perf.activity);

    EXPECT_GT(hot_rep.staticPower(), nom_rep.staticPower());
    EXPECT_LT(cold_rep.staticPower(), nom_rep.staticPower());
    // Dynamic power and DRAM do not follow die temperature.
    EXPECT_DOUBLE_EQ(hot_rep.dynamicPower(), nom_rep.dynamicPower());
    EXPECT_DOUBLE_EQ(hot_rep.dram_w, nom_rep.dram_w);
    // +20 K doubles subthreshold leakage; gate leakage stays, so the
    // static total grows by less than 2x but clearly more than 1.5x.
    EXPECT_GT(hot_rep.staticPower(), 1.5 * nom_rep.staticPower());
    EXPECT_LT(hot_rep.staticPower(), 2.0 * nom_rep.staticPower());
}

// ------------------------------------------------- closed loop / anchors

TEST(ThermalLoop, StockCoolingReproducesNominal350KOnAnchors)
{
    // The pinned default: the steady-state solve on the Table II
    // anchor configs running blackscholes lands at the 350 K the
    // static configuration assumes, closing the loop consistently
    // with every golden anchor.
    for (const GpuConfig &base :
         {GpuConfig::gt240(), GpuConfig::gtx580()}) {
        GpuConfig cfg = base;
        cfg.thermal.applyCooling("stock");
        sim::ScenarioResult r = runScenario(cfg, "blackscholes");
        EXPECT_TRUE(r.thermal);
        EXPECT_TRUE(r.thermal_converged) << base.name;
        const ThermalResult &th = r.kernels.at(0).run.thermal;
        for (std::size_t c = 0; c < cfg.clusters; ++c)
            EXPECT_NEAR(th.block_temps_k[c], 350.0, 5.0)
                << base.name << " cluster " << c;
        EXPECT_NEAR(r.t_max_k, 350.0, 8.0) << base.name;
    }
}

TEST(ThermalLoop, DisabledThermalKeepsLegacyResults)
{
    // Thermal off (the default) must not perturb anything: same
    // numbers as the pre-thermal engine, kernel for kernel.
    GpuConfig cfg = GpuConfig::gt240();
    EXPECT_FALSE(cfg.thermal.enabled);
    sim::ScenarioResult r = runScenario(cfg, "blackscholes");
    EXPECT_FALSE(r.thermal);
    EXPECT_FALSE(r.kernels.at(0).run.thermal.enabled);
    power::GpuPowerModel model(cfg);
    EXPECT_DOUBLE_EQ(r.static_w, model.staticPower());
}

TEST(ThermalLoop, BetterCoolingLowersTemperatureAndLeakageEnergy)
{
    GpuConfig stock = GpuConfig::gtx580();
    stock.thermal.applyCooling("stock");
    GpuConfig liquid = GpuConfig::gtx580();
    liquid.thermal.applyCooling("liquid");

    sim::ScenarioResult rs = runScenario(stock, "matmul");
    sim::ScenarioResult rl = runScenario(liquid, "matmul");
    EXPECT_TRUE(rs.thermal_converged);
    EXPECT_TRUE(rl.thermal_converged);
    // Same clock, same runtime — only the thermal operating point
    // moves, and with it the leakage share of the energy.
    EXPECT_DOUBLE_EQ(rs.time_s, rl.time_s);
    const ThermalResult &ts = rs.kernels.at(0).run.thermal;
    const ThermalResult &tl = rl.kernels.at(0).run.thermal;
    EXPECT_LT(tl.block_temps_k[0], ts.block_temps_k[0]);
    EXPECT_LT(rl.energy_j, rs.energy_j);
}

TEST(ThermalLoop, TransientWaveformTracksTheKernel)
{
    GpuConfig cfg = GpuConfig::gtx580();
    cfg.thermal.applyCooling("stock");
    Simulator sim(cfg);
    auto wl = workloads::makeWorkload("matmul", 2);
    auto launches = wl->prepare(sim.gpu());
    ASSERT_FALSE(launches.empty());
    KernelRun run = sim.runKernel(launches[0].prog,
                                  launches[0].launch, true, 2e-6);

    ASSERT_FALSE(run.trace.empty());
    ASSERT_EQ(run.thermal.trace.size(), run.trace.size());
    const ThermalSample &first = run.thermal.trace.front();
    const ThermalSample &last = run.thermal.trace.back();
    // Block nodes plus the heatsink.
    ASSERT_EQ(first.temps_k.size(),
              run.thermal.block_names.size() + 1);
    // The die warms monotonically out of the cold start; one kernel
    // is far shorter than the thermal time constants, so it stays
    // well below the steady-state temperature.
    EXPECT_GT(last.temps_k[0], first.temps_k[0]);
    EXPECT_LT(last.temps_k[0], run.thermal.t_max_k);
    // Transient leakage feedback: the traced static power at the
    // (cold) transient temperatures is below the 350 K figure.
    EXPECT_LT(run.trace.front().static_w,
              sim.powerModel().staticPower());
}

TEST(ThermalLoop, ThermalStateCarriesAcrossKernelsUntilRecycled)
{
    GpuConfig cfg = GpuConfig::gtx580();
    cfg.thermal.applyCooling("stock");
    Simulator sim(cfg);
    auto wl = workloads::makeWorkload("matmul", 1);
    auto launches = wl->prepare(sim.gpu());
    KernelRun first = sim.runKernel(launches[0].prog,
                                    launches[0].launch, true, 2e-6);
    KernelRun second = sim.runKernel(launches[0].prog,
                                     launches[0].launch, true, 2e-6);
    // The second kernel starts where the first ended: warmer than
    // ambient, continuing the heating trajectory.
    EXPECT_GT(second.thermal.trace.front().temps_k[0],
              first.thermal.trace.front().temps_k[0]);

    sim.recycle();
    auto launches2 = wl->prepare(sim.gpu());
    KernelRun fresh = sim.runKernel(launches2[0].prog,
                                    launches2[0].launch, true, 2e-6);
    EXPECT_EQ(fresh.thermal.trace.front().temps_k[0],
              first.thermal.trace.front().temps_k[0]);
}

// ------------------------------------------------------------- throttling

TEST(ThermalThrottle, ConstrainedGtx580ThrottlesAndCostsEnergy)
{
    // The acceptance scenario: a sustained compute run on the GTX580
    // under constrained cooling. Unthrottled it runs away; the
    // governor clamps the clock to a converged operating point at
    // the cost of runtime and energy versus the nominal run.
    GpuConfig cfg = GpuConfig::gtx580();
    cfg.thermal.applyCooling("constrained");

    sim::ScenarioResult runaway = runScenario(cfg, "matmul");
    EXPECT_FALSE(runaway.thermal_converged);
    EXPECT_FALSE(runaway.throttled);
    EXPECT_DOUBLE_EQ(runaway.t_max_k,
                     thermal::ThermalNetwork::runaway_cap_k);

    cfg.thermal.throttle = true;
    sim::ScenarioResult governed = runScenario(cfg, "matmul");
    sim::ScenarioResult nominal =
        runScenario(GpuConfig::gtx580(), "matmul");

    EXPECT_TRUE(governed.throttled);
    EXPECT_TRUE(governed.thermal_converged);
    EXPECT_LT(governed.min_freq_scale, 1.0);
    EXPECT_GT(governed.min_freq_scale,
              Simulator::min_throttle_freq_scale - 1e-12);
    EXPECT_LE(governed.t_max_k, cfg.thermal.t_limit_k + 0.25);
    // The clamp stretches the runtime, and static power keeps
    // integrating over it: strictly more energy than nominal.
    EXPECT_GT(governed.time_s, nominal.time_s);
    EXPECT_GT(governed.energy_j, nominal.energy_j);
    EXPECT_TRUE(governed.verified);
}

TEST(ThermalThrottle, RunawayReportFallsBackToNominalLeakage)
{
    // On runaway no steady state exists; evaluating leakage at the
    // 500 K cap would inflate energy ~180x and poison every sweep
    // comparison. The report must fall back to the nominal junction
    // temperature, with the runaway flagged through converged.
    GpuConfig cfg = GpuConfig::gtx580();
    cfg.thermal.applyCooling("constrained");
    sim::ScenarioResult r = runScenario(cfg, "matmul");
    ASSERT_FALSE(r.thermal_converged);

    power::GpuPowerModel model(cfg);
    const KernelRun &run = r.kernels.at(0).run;
    EXPECT_DOUBLE_EQ(run.report.staticPower(), model.staticPower());
    sim::ScenarioResult nominal =
        runScenario(GpuConfig::gtx580(), "matmul");
    EXPECT_NEAR(r.energy_j, nominal.energy_j,
                0.05 * nominal.energy_j);
}

TEST(ThermalThrottle, GovernorIgnoresTheClockInvariantDramBlock)
{
    // The DRAM board block has its own supply and clock; a t-limit
    // below its temperature must not drag the core clock to the
    // floor for a block throttling cannot cool. GTX580 vectoradd on
    // a liquid loop: die ~322 K, DRAM ~352 K.
    GpuConfig cfg = GpuConfig::gtx580();
    cfg.thermal.applyCooling("liquid");
    cfg.thermal.throttle = true;
    cfg.thermal.t_limit_k = 345.0;
    sim::ScenarioResult r = runScenario(cfg, "vectoradd");
    EXPECT_FALSE(r.throttled);
    EXPECT_TRUE(r.thermal_converged);
    EXPECT_DOUBLE_EQ(r.min_freq_scale, 1.0);
    EXPECT_LT(r.t_max_k, 345.0); // die-only, by contract
    // ...while the DRAM block itself does sit above the limit.
    const ThermalResult &th = r.kernels.at(0).run.thermal;
    ASSERT_EQ(th.block_names.back(), "dram");
    EXPECT_GT(th.block_temps_k.back(), 345.0);
    EXPECT_NE(th.hottestBlock(), "dram");
}

TEST(ThermalThrottle, NonRepeatableKernelsThrottleAnalytically)
{
    // mergeSort3 is flagged non-repeatable: the governor may not
    // re-execute it, so it iterates on the analytic rescale instead
    // — and must still land on a *verified* converged clamp, with
    // the stretched trace consistent with the stretched report.
    GpuConfig cfg = GpuConfig::gtx580();
    cfg.thermal.applyCooling("constrained");
    cfg.thermal.throttle = true;
    sim::Scenario s;
    s.config = cfg;
    s.workload = "mergesort";
    sim::EngineOptions opt;
    opt.with_trace = true;
    opt.sample_interval_s = 2e-6;
    sim::ScenarioResult r =
        sim::SimulationEngine(opt).runScenario(s);

    EXPECT_TRUE(r.throttled);
    EXPECT_TRUE(r.thermal_converged);
    EXPECT_LE(r.t_max_k, cfg.thermal.t_limit_k + 0.25);
    sim::ScenarioResult nominal =
        runScenario(GpuConfig::gtx580(), "mergesort");
    // Clamped, so slower and costlier — but sane, not runaway-scaled.
    EXPECT_GT(r.time_s, nominal.time_s);
    EXPECT_GT(r.energy_j, nominal.energy_j);
    EXPECT_LT(r.energy_j, 10.0 * nominal.energy_j);

    for (const sim::KernelResult &k : r.kernels) {
        if (k.repeatable || !k.run.thermal.throttled)
            continue;
        // The analytically stretched trace must still span the
        // kernel and integrate to the report's energy rates.
        ASSERT_FALSE(k.run.trace.empty());
        EXPECT_NEAR(k.run.trace.back().t1, k.run.perf.time_s,
                    0.05 * k.run.perf.time_s);
        double dyn_j = 0.0;
        for (const PowerSample &ps : k.run.trace)
            dyn_j += ps.dynamic_w * (ps.t1 - ps.t0);
        // mergeSort3 is only a handful of samples long, so the
        // inherent trace-vs-report discretization gap is a few
        // percent; an *unscaled* trace would be off by ~1/f (>30%).
        double rep_dyn_j =
            k.run.report.dynamicPower() * k.run.perf.time_s;
        EXPECT_NEAR(dyn_j, rep_dyn_j, 0.10 * rep_dyn_j);
    }
}

TEST(ThermalThrottle, GovernorHoldsTemperatureAtTheLimit)
{
    // GT240 under constrained cooling sits just over the limit at
    // full clock: the governor's clamp should land the steady
    // temperature at (not far below) the limit.
    GpuConfig cfg = GpuConfig::gt240();
    cfg.thermal.applyCooling("constrained");
    cfg.thermal.throttle = true;
    sim::ScenarioResult r = runScenario(cfg, "matmul");
    EXPECT_TRUE(r.throttled);
    EXPECT_TRUE(r.thermal_converged);
    EXPECT_LE(r.t_max_k, cfg.thermal.t_limit_k + 0.25);
    EXPECT_GT(r.t_max_k, cfg.thermal.t_limit_k - 10.0);
    EXPECT_LT(r.min_freq_scale, 1.0);
}

TEST(ThermalThrottle, StockCoolingDoesNotThrottleTheAnchors)
{
    for (const GpuConfig &base :
         {GpuConfig::gt240(), GpuConfig::gtx580()}) {
        GpuConfig cfg = base;
        cfg.thermal.applyCooling("stock");
        cfg.thermal.throttle = true;
        sim::ScenarioResult r = runScenario(cfg, "blackscholes");
        EXPECT_FALSE(r.throttled) << base.name;
        EXPECT_TRUE(r.thermal_converged) << base.name;
        EXPECT_DOUBLE_EQ(r.min_freq_scale, 1.0) << base.name;
    }
}

TEST(ThermalThrottle, RecycleRestoresClampAndThermalState)
{
    // After a throttled scenario, recycle() must restore the
    // configured clock and discard the thermal history so the next
    // run is bit-identical to a fresh Simulator.
    GpuConfig cfg = GpuConfig::gtx580();
    cfg.thermal.applyCooling("constrained");
    cfg.thermal.throttle = true;

    sim::Scenario scenario;
    scenario.config = cfg;
    scenario.workload = "matmul";
    sim::SimulationEngine engine;
    sim::ScenarioResult fresh = engine.runScenario(scenario);
    EXPECT_TRUE(fresh.throttled);

    Simulator sim(cfg);
    sim::ScenarioResult first = engine.runScenario(scenario, sim);
    // The clamp is live right after the scenario...
    EXPECT_LT(sim.config().clocks.freq_scale, 1.0);
    sim.recycle();
    // ...and gone after recycling.
    EXPECT_DOUBLE_EQ(sim.config().clocks.freq_scale,
                     cfg.clocks.freq_scale);
    sim::ScenarioResult again = engine.runScenario(scenario, sim);

    EXPECT_EQ(again.time_s, fresh.time_s);
    EXPECT_EQ(again.energy_j, fresh.energy_j);
    EXPECT_EQ(again.t_max_k, fresh.t_max_k);
    EXPECT_EQ(again.min_freq_scale, fresh.min_freq_scale);
    EXPECT_EQ(first.energy_j, fresh.energy_j);
}

// ------------------------------------------------------------ sweep axis

TEST(ThermalSweep, CoolingAxisExpandsBetweenOperatingPointAndWorkload)
{
    sim::SweepSpec spec;
    spec.configs = {GpuConfig::gt240()};
    spec.operating_points = {OperatingPoint{1.0, 1.0},
                             OperatingPoint{0.9, 0.9}};
    spec.coolings = {"stock", "liquid"};
    spec.workloads = {"vectoradd", "matmul"};
    EXPECT_EQ(spec.size(), 8u);

    std::vector<sim::Scenario> scenarios = spec.expand();
    ASSERT_EQ(scenarios.size(), 8u);
    EXPECT_EQ(scenarios[0].label,
              "GeForce GT240/40nm/v1f1/stock/vectoradd");
    EXPECT_EQ(scenarios[1].label,
              "GeForce GT240/40nm/v1f1/stock/matmul");
    EXPECT_EQ(scenarios[2].label,
              "GeForce GT240/40nm/v1f1/liquid/vectoradd");
    EXPECT_EQ(scenarios[4].label,
              "GeForce GT240/40nm/v0.9f0.9/stock/vectoradd");
    for (const sim::Scenario &s : scenarios) {
        EXPECT_TRUE(s.config.thermal.enabled);
        EXPECT_EQ(s.index, static_cast<std::size_t>(
                               &s - scenarios.data()));
    }
    EXPECT_DOUBLE_EQ(scenarios[2].config.thermal.cooling_scale, 0.4);
}

TEST(ThermalSweep, EmptyCoolingAxisKeepsLegacyLabelsAndThermalOff)
{
    sim::SweepSpec spec;
    spec.configs = {GpuConfig::gt240()};
    spec.workloads = {"vectoradd"};
    std::vector<sim::Scenario> scenarios = spec.expand();
    ASSERT_EQ(scenarios.size(), 1u);
    EXPECT_EQ(scenarios[0].label, "GeForce GT240/40nm/vectoradd");
    EXPECT_FALSE(scenarios[0].config.thermal.enabled);
}

TEST(ThermalSweep, ThermalSweepIsDeterministicAcrossJobs)
{
    sim::SweepSpec spec;
    spec.configs = {GpuConfig::gt240(), GpuConfig::gtx580()};
    spec.coolings = {"stock", "constrained"};
    spec.workloads = {"matmul"};
    for (GpuConfig &cfg : spec.configs)
        cfg.thermal.throttle = true;

    sim::EngineOptions one;
    one.jobs = 1;
    sim::EngineOptions four;
    four.jobs = 4;
    sim::SweepResult a = sim::SimulationEngine(one).run(spec);
    sim::SweepResult b = sim::SimulationEngine(four).run(spec);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.at(i).energy_j, b.at(i).energy_j);
        EXPECT_EQ(a.at(i).t_max_k, b.at(i).t_max_k);
        EXPECT_EQ(a.at(i).min_freq_scale, b.at(i).min_freq_scale);
        EXPECT_EQ(a.at(i).throttled, b.at(i).throttled);
    }
    // The constrained GTX580 row in this sweep must demonstrate an
    // actual clamp (the throttling acceptance scenario end to end
    // through the engine).
    EXPECT_TRUE(a.at(3).throttled);
    EXPECT_LT(a.at(3).min_freq_scale, 1.0);
}

// ----------------------------------------------- factored linear solves

TEST(ThermalSolver, FactoredSolveIsBitIdenticalToDenseReference)
{
    // The acceptance bar of the factored fast path: every solution
    // of the cached LU must match the historical from-scratch
    // elimination bit for bit, across network shapes and power
    // vectors — EXPECT_EQ, not EXPECT_NEAR.
    std::vector<std::unique_ptr<thermal::ThermalNetwork>> nets;
    nets.push_back(std::make_unique<thermal::ThermalNetwork>(
        tinyBlocks(), tinyCooling()));
    ThermalConfig decoupled = tinyCooling();
    decoupled.r_lateral_k_per_w = 1e12;
    nets.push_back(std::make_unique<thermal::ThermalNetwork>(
        tinyBlocks(), decoupled));
    for (GpuConfig cfg : {GpuConfig::gt240(), GpuConfig::gtx580()}) {
        cfg.thermal.applyCooling("stock");
        power::GpuPowerModel model(cfg);
        nets.push_back(std::make_unique<thermal::ThermalNetwork>(
            model.thermalBlocks(), cfg.thermal));
    }

    for (const auto &net_ptr : nets) {
        const thermal::ThermalNetwork &net = *net_ptr;
        std::size_t n = net.blocks().size();
        std::vector<std::vector<double>> cases;
        cases.push_back(std::vector<double>(n, 0.0));
        cases.push_back(std::vector<double>(n, 17.25));
        std::vector<double> ramp(n, 0.0);
        for (std::size_t i = 0; i < n; ++i)
            ramp[i] = 3.7 * static_cast<double>(i) + 0.1;
        cases.push_back(ramp);
        for (const std::vector<double> &powers : cases) {
            std::vector<double> fast = net.solveLinear(powers);
            std::vector<double> ref = net.solveLinearReference(powers);
            ASSERT_EQ(fast.size(), ref.size());
            for (std::size_t i = 0; i < fast.size(); ++i)
                EXPECT_EQ(fast[i], ref[i]) << "node " << i;
        }
    }
}

TEST(ThermalSolver, SolveLinearIntoReusesCallerScratch)
{
    thermal::ThermalNetwork net(tinyBlocks(), tinyCooling());
    std::vector<double> out;
    net.solveLinearInto({30.0, 0.0, 4.0}, out);
    ASSERT_EQ(out.size(), net.blocks().size() + 1);
    const double *data = out.data();
    std::vector<double> expect = net.solveLinear({12.0, 8.0, 1.0});
    net.solveLinearInto({12.0, 8.0, 1.0}, out);
    // Same buffer, fresh solution.
    EXPECT_EQ(out.data(), data);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], expect[i]) << "node " << i;
}

TEST(ThermalSolver, WarmStartConvergesToTheSameFixedPoint)
{
    thermal::ThermalNetwork net(tinyBlocks(), tinyCooling());
    auto power_at = [](const std::vector<double> &temps) {
        return std::vector<double>{
            20.0 + 0.05 * (temps[0] - 300.0), 2.0, 3.0};
    };
    obs::Counter &warm_ctr = obs::Registry::instance().counter(
        "thermal/steady_warm_starts",
        "steady solves started from a previous solution");
    uint64_t warm_before = warm_ctr.value();

    thermal::SteadyResult cold = net.solveSteady(power_at);
    ASSERT_TRUE(cold.converged);
    EXPECT_EQ(warm_ctr.value(), warm_before);

    thermal::SteadyResult warm =
        net.solveSteady(power_at, &cold.temps_k);
    EXPECT_TRUE(warm.converged);
    EXPECT_EQ(warm_ctr.value(), warm_before + 1);
    // Restarted at the fixed point, the iteration is already inside
    // tolerance: it terminates immediately and lands on the same
    // solution (to within the fixed-point tolerance).
    EXPECT_LE(warm.iterations, 2u);
    EXPECT_LT(warm.iterations, cold.iterations);
    for (std::size_t i = 0; i < cold.temps_k.size(); ++i)
        EXPECT_NEAR(warm.temps_k[i], cold.temps_k[i], 2e-4)
            << "block " << i;

    // A wrong-size warm start is ignored, not trusted.
    std::vector<double> bad(cold.temps_k.size() + 3, 330.0);
    thermal::SteadyResult fallback = net.solveSteady(power_at, &bad);
    EXPECT_TRUE(fallback.converged);
    EXPECT_EQ(fallback.iterations, cold.iterations);
    EXPECT_EQ(warm_ctr.value(), warm_before + 1);
}

TEST(ThermalSolver, ExhaustedSteadySolveWarnsAndCounts)
{
    thermal::ThermalNetwork net(tinyBlocks(), tinyCooling());
    // Bistable feedback: power flips with the temperature threshold,
    // so the fixed-point iteration oscillates forever without ever
    // approaching the runaway cap — the silent-exhaustion case the
    // counter now surfaces.
    auto power_at = [](const std::vector<double> &temps) {
        return std::vector<double>{
            temps[0] < 330.0 ? 40.0 : 0.0, 0.0, 0.0};
    };
    obs::Counter &ctr = obs::Registry::instance().counter(
        "thermal/steady_nonconverged",
        "steady solves that exhausted the iteration budget");
    uint64_t before = ctr.value();
    thermal::SteadyResult s = net.solveSteady(power_at);
    EXPECT_FALSE(s.converged);
    EXPECT_EQ(s.iterations, 1000u);
    EXPECT_LT(s.maxTemp(), thermal::ThermalNetwork::runaway_cap_k);
    EXPECT_EQ(ctr.value(), before + 1);
}

// ---------------------------------------------------- exact propagator

TEST(ThermalIntegrator, ExactPropagatorConvergesToEulerAsStepsShrink)
{
    thermal::ThermalNetwork net(tinyBlocks(), tinyCooling());
    std::vector<double> powers{25.0, 3.0, 4.0};

    // March the propagator and the Euler oracle over the same 0.5 s
    // span at two step sizes. The discrepancy is Euler's O(dt)
    // truncation error: it must be small at the coarse step and
    // shrink with dt.
    auto discrepancy = [&](double dt) {
        thermal::ThermalNetwork::State a = net.ambientState();
        thermal::ThermalNetwork::State b = net.ambientState();
        int steps = static_cast<int>(0.5 / dt);
        for (int i = 0; i < steps; ++i) {
            net.advance(a, powers, dt);
            net.advanceEulerReference(b, powers, dt);
        }
        double err = 0.0;
        for (std::size_t i = 0; i < a.temps_k.size(); ++i)
            err = std::max(err,
                           std::fabs(a.temps_k[i] - b.temps_k[i]));
        return err;
    };

    double coarse = discrepancy(1e-3);
    double fine = discrepancy(1e-4);
    EXPECT_LT(coarse, 0.2); // K, on a ~20 K rise
    EXPECT_LT(fine, coarse);
    EXPECT_LT(fine, 0.02);
}

TEST(ThermalIntegrator, PropagatorCacheIsConsistentAcrossMixedDts)
{
    // Interleaved sample intervals exercise the per-dt cache in one
    // network; a throwaway network per step rebuilds every
    // propagator from scratch. The trajectories must agree bit for
    // bit — a cache hit must be indistinguishable from a rebuild.
    thermal::ThermalNetwork cached(tinyBlocks(), tinyCooling());
    thermal::ThermalNetwork::State s_cached = cached.ambientState();
    thermal::ThermalNetwork::State s_fresh = cached.ambientState();
    std::vector<double> powers{25.0, 3.0, 4.0};
    const double dts[] = {2e-6, 5e-4, 2e-6, 1e-2, 5e-4,
                          2e-6, 1e-2, 2e-6, 5e-4, 2e-6};
    for (double dt : dts) {
        cached.advance(s_cached, powers, dt);
        thermal::ThermalNetwork fresh(tinyBlocks(), tinyCooling());
        fresh.advance(s_fresh, powers, dt);
        ASSERT_EQ(s_cached.temps_k.size(), s_fresh.temps_k.size());
        for (std::size_t i = 0; i < s_cached.temps_k.size(); ++i)
            EXPECT_EQ(s_cached.temps_k[i], s_fresh.temps_k[i])
                << "node " << i << " after dt " << dt;
    }
}

TEST(ThermalIntegrator, ExactLandsOnSteadyStateForLongSpans)
{
    // The steady-snap shortcut is shared with the Euler oracle, and
    // below it the exact propagator still settles to the linear
    // solution on constant power — no drift from the cached P/Q.
    thermal::ThermalNetwork net(tinyBlocks(), tinyCooling());
    std::vector<double> powers{25.0, 3.0, 4.0};
    std::vector<double> steady = net.solveLinear(powers);

    // The heatsink pole is ~75 s; 2000 s is ~27 time constants.
    thermal::ThermalNetwork::State state = net.ambientState();
    for (int i = 0; i < 2000; ++i)
        net.advance(state, powers, 1.0);
    for (std::size_t i = 0; i < state.temps_k.size(); ++i)
        EXPECT_NEAR(state.temps_k[i], steady[i], 1e-6) << "node " << i;
}

TEST(ThermalIntegrator, EulerReferenceSharesInitAndLongSpanSnap)
{
    // The Euler oracle differs from advance() only in how it
    // integrates: an uninitialized state starts at ambient in both,
    // a non-positive span is a no-op in both, and a span far beyond
    // every time constant snaps to the same steady solution.
    thermal::ThermalNetwork net(tinyBlocks(), tinyCooling());
    std::vector<double> powers{25.0, 3.0, 4.0};
    thermal::ThermalNetwork::State a, b;
    net.advance(a, powers, 0.0);
    net.advanceEulerReference(b, powers, 0.0);
    EXPECT_EQ(a.temps_k, net.ambientState().temps_k);
    EXPECT_EQ(b.temps_k, a.temps_k);

    net.advance(a, powers, 1e7);
    net.advanceEulerReference(b, powers, 1e7);
    EXPECT_EQ(a.temps_k, net.solveLinear(powers));
    EXPECT_EQ(b.temps_k, a.temps_k);
}

TEST(ThermalIntegrator, GovernedClampsAreDeterministicAcrossWorkers)
{
    // The governed acceptance sweep: 1 worker vs 8 workers must
    // clamp identically, bit for bit.
    sim::SweepSpec spec;
    spec.configs = {GpuConfig::gt240(), GpuConfig::gtx580()};
    spec.coolings = {"stock", "constrained"};
    spec.workloads = {"matmul"};
    for (GpuConfig &cfg : spec.configs)
        cfg.thermal.throttle = true;

    sim::EngineOptions one;
    one.jobs = 1;
    sim::EngineOptions eight;
    eight.jobs = 8;
    sim::SweepResult a = sim::SimulationEngine(one).run(spec);
    sim::SweepResult b = sim::SimulationEngine(eight).run(spec);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.at(i).energy_j, b.at(i).energy_j);
        EXPECT_EQ(a.at(i).t_max_k, b.at(i).t_max_k);
        EXPECT_EQ(a.at(i).min_freq_scale, b.at(i).min_freq_scale);
        EXPECT_EQ(a.at(i).throttled, b.at(i).throttled);
    }
    EXPECT_TRUE(a.at(3).throttled);
}

// -------------------------------------------------------- thread safety

TEST(ThermalStress, SharedNetworkServesConcurrentAdvancesAndSolves)
{
    // One const network, many threads with distinct States, mixed
    // dts racing to populate the propagator cache plus concurrent
    // steady solves: the TSan job runs this to prove the cache's
    // locking. Each thread's trajectory must also match a
    // single-threaded replay bit for bit.
    thermal::ThermalNetwork net(tinyBlocks(), tinyCooling());
    const double dts[] = {2e-6, 5e-4, 1e-2, 7e-5, 3e-3};
    std::vector<double> powers{25.0, 3.0, 4.0};
    auto power_at = [](const std::vector<double> &temps) {
        return std::vector<double>{
            20.0 + 0.05 * (temps[0] - 300.0), 2.0, 3.0};
    };

    auto march = [&](unsigned seed,
                     thermal::ThermalNetwork::State &state) {
        for (unsigned i = 0; i < 200; ++i) {
            net.advance(state, powers, dts[(seed + i) % 5]);
            if (i % 40 == 0) {
                thermal::SteadyResult s =
                    net.solveSteady(power_at, &state.temps_k);
                EXPECT_TRUE(s.converged);
            }
        }
    };

    constexpr unsigned n_threads = 8;
    std::vector<thermal::ThermalNetwork::State> states(
        n_threads, net.ambientState());
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < n_threads; ++t)
        threads.emplace_back([&, t] { march(t, states[t]); });
    for (std::thread &th : threads)
        th.join();

    for (unsigned t = 0; t < n_threads; ++t) {
        thermal::ThermalNetwork::State replay = net.ambientState();
        march(t, replay);
        ASSERT_EQ(states[t].temps_k.size(), replay.temps_k.size());
        for (std::size_t i = 0; i < replay.temps_k.size(); ++i)
            EXPECT_EQ(states[t].temps_k[i], replay.temps_k[i])
                << "thread " << t << " node " << i;
    }
}
