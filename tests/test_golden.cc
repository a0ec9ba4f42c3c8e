/**
 * @file
 * Golden-anchor regression tests: the paper-facing reference numbers
 * — Table IV static power / area and the Table V blackscholes power
 * breakdown — are serialized under tests/golden/ for the GT240 and
 * GTX580 reference configurations, and every component value must
 * stay within 0.1% of its anchor. Any model change that moves these
 * numbers is flagged here before it silently drifts the paper
 * reproduction.
 *
 * Regenerate the anchors intentionally with:
 *   GPUSIMPOW_REGEN_GOLDEN=1 ./test_golden
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/strutil.hh"
#include "power/chip_power.hh"
#include "sim/session.hh"

using namespace gpusimpow;

namespace {

/** Relative tolerance of the anchors. */
constexpr double kTolerance = 1e-3;
/** Absolute floor so exact zeros compare cleanly. */
constexpr double kAbsFloor = 1e-12;

std::string
goldenDir()
{
    if (const char *env = std::getenv("GPUSIMPOW_TEST_DATA"))
        return std::string(env) + "/golden";
#ifdef GPUSIMPOW_SOURCE_DIR
    return std::string(GPUSIMPOW_SOURCE_DIR) + "/tests/golden";
#else
    return "tests/golden";
#endif
}

bool
regenRequested()
{
    const char *env = std::getenv("GPUSIMPOW_REGEN_GOLDEN");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/**
 * Serialized anchor: "path field value" lines (PowerNode::flatten)
 * plus scalar "summary <name> <value>" lines.
 */
std::map<std::string, double>
parseAnchor(const std::string &text)
{
    std::map<std::string, double> values;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::size_t last_space = line.rfind(' ');
        if (last_space == std::string::npos) {
            ADD_FAILURE() << "malformed anchor line: " << line;
            continue;
        }
        try {
            values[line.substr(0, last_space)] =
                std::stod(line.substr(last_space + 1));
        } catch (const std::exception &) {
            ADD_FAILURE() << "unparsable anchor value: " << line;
        }
    }
    return values;
}

void
compareToGolden(const std::string &file, const std::string &actual)
{
    std::string path = goldenDir() + "/" + file;
    if (regenRequested()) {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " (run with GPUSIMPOW_REGEN_GOLDEN=1)";
    std::stringstream buffer;
    buffer << in.rdbuf();

    std::map<std::string, double> golden, current;
    parseAnchor(buffer.str()).swap(golden);
    parseAnchor(actual).swap(current);

    ASSERT_FALSE(golden.empty()) << path;
    EXPECT_EQ(golden.size(), current.size())
        << "component set changed vs " << file;
    for (const auto &[key, expected] : golden) {
        auto it = current.find(key);
        if (it == current.end()) {
            ADD_FAILURE() << "missing component '" << key << "' vs "
                          << file;
            continue;
        }
        double bound =
            std::max(kAbsFloor, kTolerance * std::fabs(expected));
        EXPECT_NEAR(it->second, expected, bound)
            << file << ": " << key << " drifted by "
            << (expected != 0.0
                    ? (it->second - expected) / expected * 100.0
                    : 0.0)
            << "%";
    }
}

/** Table IV anchor: static-only report of an idle chip. */
std::string
staticAnchor(const GpuConfig &cfg)
{
    power::GpuPowerModel model(cfg);
    power::PowerReport report = model.staticReport();
    std::string out = report.gpu.flatten();
    out += strformat("summary static_w %.9g\n", model.staticPower());
    out += strformat("summary area_mm2 %.9g\n", model.area());
    out += strformat("summary peak_dynamic_w %.9g\n",
                     model.peakDynamicPower());
    return out;
}

/** Table V anchor: blackscholes breakdown on the reference config. */
std::string
breakdownAnchor(const GpuConfig &cfg)
{
    sim::Scenario scenario;
    scenario.config = cfg;
    scenario.workload = "blackscholes";
    sim::ScenarioResult result =
        sim::SweepSession().runScenario(scenario);
    EXPECT_TRUE(result.verified);
    EXPECT_EQ(result.kernels.size(), 1u);
    const power::PowerReport &report = result.kernels.at(0).run.report;
    std::string out = report.gpu.flatten();
    out += strformat("summary dram_w %.9g\n", report.dram_w);
    out += strformat("summary static_w %.9g\n", report.staticPower());
    out += strformat("summary dynamic_w %.9g\n", report.dynamicPower());
    out += strformat("summary time_s %.9g\n", result.time_s);
    out += strformat("summary energy_j %.9g\n", result.energy_j);
    return out;
}

/**
 * Waveform anchor: a traced GTX580 blackscholes kernel under the
 * stock cooler, serialized sample for sample (power split and the
 * transient block temperatures). End-of-kernel totals cannot see a
 * per-interval regression of the power/thermal evaluation loop; this
 * fixture can.
 */
std::string
thermalWaveformAnchor()
{
    GpuConfig cfg = GpuConfig::gtx580();
    cfg.thermal.applyCooling("stock");

    sim::EngineOptions opt;
    opt.with_trace = true;
    opt.sample_interval_s = 0.5e-6;
    sim::Scenario scenario;
    scenario.config = cfg;
    scenario.workload = "blackscholes";
    scenario.scale = 8;
    sim::ScenarioResult result =
        sim::SweepSession(opt).runScenario(scenario);
    EXPECT_TRUE(result.verified);
    EXPECT_EQ(result.kernels.size(), 1u);
    const KernelRun &run = result.kernels.at(0).run;
    EXPECT_TRUE(run.thermal.enabled);
    EXPECT_TRUE(run.thermal.converged);
    EXPECT_EQ(run.trace.size(), run.thermal.trace.size());
    EXPECT_GE(run.trace.size(), 50u);

    // Die blocks sit before the dram entry; the heatsink node is the
    // last transient temperature.
    std::size_t dram_index = run.thermal.block_names.size() - 1;
    EXPECT_EQ(run.thermal.block_names.at(dram_index), "dram");

    std::string out;
    out += strformat("summary samples %zu\n", run.trace.size());
    for (std::size_t k = 0; k < run.trace.size(); ++k) {
        const PowerSample &p = run.trace[k];
        const ThermalSample &t = run.thermal.trace[k];
        double die_max = 0.0;
        for (std::size_t b = 0; b < dram_index; ++b)
            die_max = std::max(die_max, t.temps_k[b]);
        std::string key = strformat("sample%04zu", k);
        out += strformat("%s t0_us %.9g\n", key.c_str(), p.t0 * 1e6);
        out += strformat("%s t1_us %.9g\n", key.c_str(), p.t1 * 1e6);
        out += strformat("%s dynamic_w %.9g\n", key.c_str(),
                         p.dynamic_w);
        out += strformat("%s static_w %.9g\n", key.c_str(),
                         p.static_w);
        out += strformat("%s dram_w %.9g\n", key.c_str(), p.dram_w);
        out += strformat("%s t_die_max_k %.9g\n", key.c_str(),
                         die_max);
        out += strformat("%s t_dram_k %.9g\n", key.c_str(),
                         t.temps_k[dram_index]);
        out += strformat("%s t_heatsink_k %.9g\n", key.c_str(),
                         t.temps_k.back());
    }
    return out;
}

} // namespace

TEST(Golden, Table4StaticGt240)
{
    compareToGolden("gt240_static.txt",
                    staticAnchor(GpuConfig::gt240()));
}

TEST(Golden, Table4StaticGtx580)
{
    compareToGolden("gtx580_static.txt",
                    staticAnchor(GpuConfig::gtx580()));
}

TEST(Golden, Table5BreakdownGt240)
{
    compareToGolden("gt240_blackscholes_breakdown.txt",
                    breakdownAnchor(GpuConfig::gt240()));
}

TEST(Golden, Table5BreakdownGtx580)
{
    compareToGolden("gtx580_blackscholes_breakdown.txt",
                    breakdownAnchor(GpuConfig::gtx580()));
}

TEST(Golden, ThermalWaveformGtx580)
{
    compareToGolden("gtx580_thermal_waveform.txt",
                    thermalWaveformAnchor());
}

/**
 * The paper's own headline values (Table IV "Simulated" column) are
 * anchored directly too, at the paper's print precision, so the model
 * cannot drift away from the publication even if the golden files are
 * regenerated carelessly.
 */
TEST(Golden, Table4PaperHeadlineNumbers)
{
    power::GpuPowerModel gt240(GpuConfig::gt240());
    EXPECT_NEAR(gt240.staticPower(), 17.9, 0.5);
    EXPECT_NEAR(gt240.area(), 105.0, 3.0);

    power::GpuPowerModel gtx580(GpuConfig::gtx580());
    EXPECT_NEAR(gtx580.staticPower(), 81.5, 2.0);
    EXPECT_NEAR(gtx580.area(), 306.0, 8.0);
}
