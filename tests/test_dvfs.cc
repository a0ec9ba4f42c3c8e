/**
 * @file
 * Tests of the DVFS operating-point subsystem: the V^2*f scaling of
 * Eq. 1 in the tech layer and power model, leakage monotonicity in
 * the supply, exact bit-identity of the identity point (so the golden
 * anchors stay valid), operating-point parsing/validation, the sweep
 * axis, and end-to-end energy behavior at scaled points.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/logging.hh"
#include "power/chip_power.hh"
#include "sim/session.hh"
#include "tech/tech.hh"

using namespace gpusimpow;
using tech::DeviceType;
using tech::TechNode;

// --- Tech-layer operating-point math ---------------------------------

TEST(DvfsTech, IdentityScaleIsBitIdenticalToUnscaledNode)
{
    TechNode a = TechNode::make(40, 1.05, 350.0);
    TechNode b = TechNode::make(40, 1.05, 350.0, 1.0);
    EXPECT_EQ(a.vdd, b.vdd);
    EXPECT_EQ(a.hp.i_sub_per_um, b.hp.i_sub_per_um);
    EXPECT_EQ(a.hp.i_gate_per_um, b.hp.i_gate_per_um);
    EXPECT_EQ(a.lstp.i_sub_per_um, b.lstp.i_sub_per_um);
    EXPECT_EQ(a.lstp.i_gate_per_um, b.lstp.i_gate_per_um);
    EXPECT_EQ(a.switchEnergy(1e-12), b.switchEnergy(1e-12));
    EXPECT_EQ(a.leakage(100.0), b.leakage(100.0));
    EXPECT_EQ(a.gateLeakage(100.0), b.gateLeakage(100.0));
}

TEST(DvfsTech, SwitchEnergyScalesWithVddSquared)
{
    TechNode nom = TechNode::make(40, 1.05, 350.0);
    TechNode low = TechNode::make(40, 1.05, 350.0, 0.8);
    TechNode high = TechNode::make(40, 1.05, 350.0, 1.2);
    EXPECT_NEAR(low.switchEnergy(1e-12) / nom.switchEnergy(1e-12),
                0.8 * 0.8, 1e-12);
    EXPECT_NEAR(high.switchEnergy(1e-12) / nom.switchEnergy(1e-12),
                1.2 * 1.2, 1e-12);
}

TEST(DvfsTech, LeakageIsMonotonicallyIncreasingInVdd)
{
    double prev_sub = 0.0, prev_gate = 0.0;
    for (double s : {0.7, 0.8, 0.9, 1.0, 1.1, 1.2}) {
        TechNode t = TechNode::make(40, 1.05, 350.0, s);
        double sub = t.leakage(100.0, DeviceType::HP);
        double gate = t.gateLeakage(100.0, DeviceType::HP);
        EXPECT_GT(sub, prev_sub) << "vdd_scale " << s;
        EXPECT_GT(gate, prev_gate) << "vdd_scale " << s;
        prev_sub = sub;
        prev_gate = gate;
    }
}

TEST(DvfsTech, SubthresholdLeakageIsSuperlinearInVdd)
{
    // The DIBL exponential must dominate the linear V factor: halving
    // the supply should cut subthreshold leakage by far more than 2x.
    TechNode nom = TechNode::make(40, 1.05, 350.0);
    TechNode low = TechNode::make(40, 1.05, 350.0, 0.8);
    double ratio = low.leakage(100.0) / nom.leakage(100.0);
    EXPECT_LT(ratio, 0.8 * 0.8);
    EXPECT_GT(ratio, 0.0);
}

TEST(DvfsTech, RejectsNonPositiveScale)
{
    EXPECT_THROW(TechNode::make(40, 1.05, 350.0, 0.0), FatalError);
    EXPECT_THROW(TechNode::make(40, 1.05, 350.0, -1.0), FatalError);
}

// --- Operating-point type --------------------------------------------

TEST(DvfsOperatingPoint, ParseSingleValueSetsBothScales)
{
    OperatingPoint op = OperatingPoint::parse("0.9");
    EXPECT_DOUBLE_EQ(op.vdd_scale, 0.9);
    EXPECT_DOUBLE_EQ(op.freq_scale, 0.9);
}

TEST(DvfsOperatingPoint, ParsePairSetsScalesSeparately)
{
    OperatingPoint op = OperatingPoint::parse(" 0.9:0.8 ");
    EXPECT_DOUBLE_EQ(op.vdd_scale, 0.9);
    EXPECT_DOUBLE_EQ(op.freq_scale, 0.8);
}

TEST(DvfsOperatingPoint, ParseRejectsMalformedAndOutOfRange)
{
    EXPECT_THROW(OperatingPoint::parse(""), FatalError);
    EXPECT_THROW(OperatingPoint::parse("abc"), FatalError);
    EXPECT_THROW(OperatingPoint::parse("0.9:0.8:0.7"), FatalError);
    EXPECT_THROW(OperatingPoint::parse("0.9:"), FatalError);
    EXPECT_THROW(OperatingPoint::parse(":0.8"), FatalError);
    EXPECT_THROW(OperatingPoint::parse("9"), FatalError);    // typo'd V
    EXPECT_THROW(OperatingPoint::parse("-0.9"), FatalError);
    EXPECT_THROW(OperatingPoint::parse("0.9:-1"), FatalError);
    EXPECT_THROW(OperatingPoint::parse("0"), FatalError);
}

TEST(DvfsOperatingPoint, ParseListDropsEmptyEntries)
{
    auto ops = OperatingPoint::parseList("0.8, 1:1 ,,1.1:1.2,");
    ASSERT_EQ(ops.size(), 3u);
    EXPECT_DOUBLE_EQ(ops[0].vdd_scale, 0.8);
    EXPECT_TRUE(ops[1].isIdentity());
    EXPECT_DOUBLE_EQ(ops[2].freq_scale, 1.2);
    EXPECT_TRUE(OperatingPoint::parseList("").empty());
}

TEST(DvfsOperatingPoint, LabelIsCompact)
{
    EXPECT_EQ((OperatingPoint{1.0, 1.0}).label(), "v1f1");
    EXPECT_EQ((OperatingPoint{0.9, 0.85}).label(), "v0.9f0.85");
}

TEST(DvfsOperatingPoint, FeasibilityFollowsAlphaPowerLaw)
{
    // Nominal supply sustains the nominal clock (with headroom = 0).
    EXPECT_NEAR((OperatingPoint{1.0, 1.0}).maxFreqScale(), 1.0, 1e-12);
    EXPECT_TRUE((OperatingPoint{1.0, 1.0}).isFeasible());
    // fmax is monotonically increasing in V.
    double prev = 0.0;
    for (double v : {0.5, 0.7, 0.9, 1.1, 1.3}) {
        double fmax = OperatingPoint{v, 1.0}.maxFreqScale();
        EXPECT_GT(fmax, prev) << "vdd_scale " << v;
        prev = fmax;
    }
    // Undervolted chips cannot hold the nominal clock...
    EXPECT_FALSE((OperatingPoint{0.8, 1.0}).isFeasible());
    // ...but a matched downscale is fine, and overvolting buys clock.
    EXPECT_TRUE((OperatingPoint{0.8, 0.7}).isFeasible());
    EXPECT_TRUE((OperatingPoint{1.1, 1.05}).isFeasible());
}

TEST(DvfsOperatingPoint, ApplyToScalesClocksAndSupply)
{
    GpuConfig cfg = GpuConfig::gt240();
    double nominal_shader = cfg.clocks.shaderHz();
    OperatingPoint{0.9, 0.8}.applyTo(cfg);
    EXPECT_DOUBLE_EQ(cfg.tech.vdd_scale, 0.9);
    EXPECT_DOUBLE_EQ(cfg.clocks.freq_scale, 0.8);
    EXPECT_NEAR(cfg.clocks.shaderHz(), nominal_shader * 0.8, 1.0);
    // The DRAM clock is a separate domain and must not move.
    EXPECT_DOUBLE_EQ(cfg.clocks.dram_hz,
                     GpuConfig::gt240().clocks.dram_hz);
}

TEST(DvfsOperatingPoint, SurvivesXmlRoundTrip)
{
    GpuConfig cfg = GpuConfig::gtx580();
    OperatingPoint{0.9, 0.85}.applyTo(cfg);
    GpuConfig back = GpuConfig::fromXml(cfg.toXml());
    EXPECT_DOUBLE_EQ(back.tech.vdd_scale, 0.9);
    EXPECT_DOUBLE_EQ(back.clocks.freq_scale, 0.85);
    EXPECT_EQ(back.toXml(), cfg.toXml());
}

TEST(DvfsOperatingPoint, XmlValidationRejectsOutOfRangeScales)
{
    GpuConfig cfg = GpuConfig::gt240();
    cfg.tech.vdd_scale = 5.0;
    EXPECT_THROW(GpuConfig::fromXml(cfg.toXml()), FatalError);
    cfg = GpuConfig::gt240();
    cfg.clocks.freq_scale = -0.5;
    EXPECT_THROW(GpuConfig::fromXml(cfg.toXml()), FatalError);
}

// --- Power model at scaled operating points --------------------------

TEST(DvfsPower, IdentityPointIsBitIdenticalToNominalModel)
{
    GpuConfig nominal = GpuConfig::gt240();
    GpuConfig identity = GpuConfig::gt240();
    OperatingPoint{1.0, 1.0}.applyTo(identity);

    power::GpuPowerModel a(nominal);
    power::GpuPowerModel b(identity);
    EXPECT_EQ(a.staticPower(), b.staticPower());
    EXPECT_EQ(a.area(), b.area());
    EXPECT_EQ(a.peakDynamicPower(), b.peakDynamicPower());
    EXPECT_EQ(a.techNode().vdd, b.techNode().vdd);
}

TEST(DvfsPower, StaticPowerDropsWithSupply)
{
    GpuConfig low = GpuConfig::gt240();
    OperatingPoint{0.8, 1.0}.applyTo(low);
    power::GpuPowerModel nom(GpuConfig::gt240());
    power::GpuPowerModel scaled(low);
    EXPECT_LT(scaled.staticPower(), nom.staticPower());
    // Area is voltage-independent.
    EXPECT_EQ(scaled.area(), nom.area());
}

TEST(DvfsPower, PeakDynamicScalesRoughlyWithV2F)
{
    GpuConfig low = GpuConfig::gt240();
    OperatingPoint{0.9, 0.8}.applyTo(low);
    power::GpuPowerModel nom(GpuConfig::gt240());
    power::GpuPowerModel scaled(low);
    // Core-domain peak dynamic tracks V^2*f; MC/PCIe terms in the
    // total don't scale, so only bound the ratio from both sides.
    double ratio =
        scaled.peakDynamicPower() / nom.peakDynamicPower();
    EXPECT_LT(ratio, 1.0);
    EXPECT_GT(ratio, 0.9 * 0.9 * 0.8 * 0.9);
}

TEST(DvfsPower, StaticScalarsIgnoreTheCoreClock)
{
    // Static power is what measured power extrapolates to at a zero
    // core clock, so nothing static may depend on the clock. The
    // throttling governor relies on it: its clamp models only measure
    // a kernel, while the Simulator's own model keeps the thermal
    // scalars, the deferred marches and the scenario columns.
    for (const GpuConfig &preset :
         {GpuConfig::gt240(), GpuConfig::gtx580()}) {
        for (unsigned node : {40u, 28u}) {
            GpuConfig nominal = preset;
            nominal.tech.node_nm = node;
            const power::GpuPowerModel ref(nominal);
            for (double f : {0.25, 0.407, 0.8, 1.0}) {
                SCOPED_TRACE(preset.name + " " + std::to_string(node) +
                             " nm x" + std::to_string(f));
                GpuConfig clamped = nominal;
                clamped.clocks.freq_scale = f;
                const power::GpuPowerModel m(clamped);
                EXPECT_EQ(m.staticPower(), ref.staticPower());
                EXPECT_EQ(m.area(), ref.area());
                EXPECT_EQ(m.techNode().vdd, ref.techNode().vdd);
                EXPECT_EQ(m.nominalLeakFactor(), ref.nominalLeakFactor());
                for (double t : {300.0, 350.0, 400.0})
                    EXPECT_EQ(m.subLeakScaleAt(t), ref.subLeakScaleAt(t))
                        << t << " K";
                EXPECT_EQ(m.thermalBlocks(), ref.thermalBlocks());
            }
        }
    }
}

// --- Sweep axis ------------------------------------------------------

TEST(DvfsSweep, OperatingPointAxisExpandsBetweenNodeAndWorkload)
{
    sim::SweepSpec spec;
    spec.configs = {GpuConfig::gt240()};
    spec.tech_nodes = {40u, 28u};
    spec.operating_points = {OperatingPoint{0.9, 0.9},
                             OperatingPoint{1.0, 1.0}};
    spec.workloads = {"vectoradd", "matmul"};
    ASSERT_EQ(spec.size(), 8u);

    std::vector<sim::Scenario> scenarios = spec.expand();
    ASSERT_EQ(scenarios.size(), 8u);
    for (std::size_t i = 0; i < scenarios.size(); ++i)
        EXPECT_EQ(scenarios[i].index, i);

    // config-major, then node, then operating point, then workload.
    EXPECT_EQ(scenarios[0].config.tech.node_nm, 40u);
    EXPECT_DOUBLE_EQ(scenarios[0].op.vdd_scale, 0.9);
    EXPECT_EQ(scenarios[0].workload, "vectoradd");
    EXPECT_EQ(scenarios[1].workload, "matmul");
    EXPECT_TRUE(scenarios[2].op.isIdentity());
    EXPECT_EQ(scenarios[4].config.tech.node_nm, 28u);
    EXPECT_DOUBLE_EQ(scenarios[4].op.vdd_scale, 0.9);
    EXPECT_EQ(scenarios[0].label,
              "GeForce GT240/40nm/v0.9f0.9/vectoradd");
    EXPECT_EQ(scenarios[7].label,
              "GeForce GT240/28nm/v1f1/matmul");

    // The applied configs carry the scales.
    EXPECT_DOUBLE_EQ(scenarios[0].config.tech.vdd_scale, 0.9);
    EXPECT_DOUBLE_EQ(scenarios[0].config.clocks.freq_scale, 0.9);
}

TEST(DvfsSweep, EmptyAxisKeepsLegacyLabelsAndOrder)
{
    sim::SweepSpec spec;
    spec.configs = {GpuConfig::gt240()};
    spec.workloads = {"vectoradd"};
    std::vector<sim::Scenario> scenarios = spec.expand();
    ASSERT_EQ(scenarios.size(), 1u);
    EXPECT_EQ(scenarios[0].label, "GeForce GT240/40nm/vectoradd");
    EXPECT_TRUE(scenarios[0].op.isIdentity());
}

TEST(DvfsSweep, EmptyAxisKeepsTheConfigsOwnOperatingPoint)
{
    // A base config that already carries a scaled operating point
    // (applied by the caller or loaded from XML) must sweep at that
    // point when no operating_points axis is given — not get reset
    // to the identity.
    GpuConfig cfg = GpuConfig::gt240();
    OperatingPoint{0.9, 0.8}.applyTo(cfg);
    sim::SweepSpec spec;
    spec.configs = {cfg};
    spec.workloads = {"vectoradd"};
    std::vector<sim::Scenario> scenarios = spec.expand();
    ASSERT_EQ(scenarios.size(), 1u);
    EXPECT_DOUBLE_EQ(scenarios[0].config.tech.vdd_scale, 0.9);
    EXPECT_DOUBLE_EQ(scenarios[0].config.clocks.freq_scale, 0.8);
    EXPECT_DOUBLE_EQ(scenarios[0].op.vdd_scale, 0.9);
    EXPECT_DOUBLE_EQ(scenarios[0].op.freq_scale, 0.8);
}

// --- End-to-end scenario behavior ------------------------------------

TEST(DvfsScenario, IdentityOperatingPointReproducesNominalRunExactly)
{
    const sim::SweepSession session;

    sim::Scenario nominal;
    nominal.config = GpuConfig::gt240();
    nominal.workload = "vectoradd";

    sim::Scenario identity = nominal;
    OperatingPoint{1.0, 1.0}.applyTo(identity.config);

    sim::ScenarioResult a = session.runScenario(nominal);
    sim::ScenarioResult b = session.runScenario(identity);
    EXPECT_EQ(a.time_s, b.time_s);
    EXPECT_EQ(a.energy_j, b.energy_j);
    EXPECT_EQ(a.avg_power_w, b.avg_power_w);
    EXPECT_EQ(a.static_w, b.static_w);
    EXPECT_EQ(a.vdd, b.vdd);
    EXPECT_TRUE(a.verified);
    EXPECT_TRUE(b.verified);
}

TEST(DvfsScenario, LowerVfPointTradesRuntimeForEnergy)
{
    const sim::SweepSession session;

    sim::Scenario nominal;
    nominal.config = GpuConfig::gt240();
    nominal.workload = "blackscholes";

    sim::Scenario low = nominal;
    low.op = OperatingPoint{0.8, 0.7};
    low.op.applyTo(low.config);

    sim::ScenarioResult a = session.runScenario(nominal);
    sim::ScenarioResult b = session.runScenario(low);
    ASSERT_TRUE(a.verified);
    ASSERT_TRUE(b.verified);
    // Slower clock -> longer runtime; lower V and f -> less power.
    EXPECT_GT(b.time_s, a.time_s);
    EXPECT_LT(b.avg_power_w, a.avg_power_w);
    EXPECT_LT(b.static_w, a.static_w);
    // Compute-bound at lower V/f: chip energy should not rise for
    // this compute-heavy kernel (DRAM background power can offset
    // part of the saving, so compare average chip power x time).
    EXPECT_LT((b.avg_power_w) * b.time_s / (a.avg_power_w * a.time_s),
              1.15);
}

TEST(DvfsScenario, SweepOverOperatingPointsIsDeterministicAcrossJobs)
{
    // The acceptance-criteria shape: >= 3 operating points x 2 GPUs
    // x 2 workloads, bit-identical for any worker count.
    sim::SweepSpec spec;
    spec.configs = {GpuConfig::gt240(), GpuConfig::gtx580()};
    spec.operating_points = {OperatingPoint{0.9, 0.85},
                             OperatingPoint{1.0, 1.0},
                             OperatingPoint{1.05, 1.1}};
    spec.workloads = {"vectoradd", "scalarprod"};
    ASSERT_EQ(spec.size(), 12u);

    sim::EngineOptions serial_opt;
    serial_opt.jobs = 1;
    sim::SweepResult serial =
        sim::SweepSession(serial_opt).submit(spec);

    for (unsigned jobs : {3u, 8u}) {
        sim::EngineOptions opt;
        opt.jobs = jobs;
        sim::SweepResult parallel = sim::SweepSession(opt).submit(spec);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(serial.at(i).scenario.label,
                      parallel.at(i).scenario.label);
            EXPECT_EQ(serial.at(i).time_s, parallel.at(i).time_s)
                << serial.at(i).scenario.label << " jobs=" << jobs;
            EXPECT_EQ(serial.at(i).energy_j, parallel.at(i).energy_j)
                << serial.at(i).scenario.label << " jobs=" << jobs;
            EXPECT_TRUE(parallel.at(i).verified);
        }
    }

    // The identity rows must be bit-identical to a sweep without the
    // operating-point axis (golden-anchor safety at the sweep level).
    sim::SweepSpec plain = spec;
    plain.operating_points.clear();
    sim::SweepResult base = sim::SweepSession(serial_opt).submit(plain);
    // spec rows: [gt240: op0 wl0, op0 wl1, op1(identity) wl0, ...]
    EXPECT_EQ(base.at(0).energy_j, serial.at(2).energy_j);
    EXPECT_EQ(base.at(1).energy_j, serial.at(3).energy_j);
    EXPECT_EQ(base.at(2).energy_j, serial.at(8).energy_j);
    EXPECT_EQ(base.at(3).energy_j, serial.at(9).energy_j);
}
