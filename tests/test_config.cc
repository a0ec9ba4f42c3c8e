/**
 * @file
 * Unit tests for the GPU configuration schema: Table II preset
 * values, XML round-tripping, sparse overrides, and validation.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/logging.hh"
#include "config/gpu_config.hh"
#include "power/chip_power.hh"
#include "sim/session.hh"

using namespace gpusimpow;

TEST(GpuConfig, Gt240MatchesTableII)
{
    GpuConfig c = GpuConfig::gt240();
    EXPECT_EQ(c.numCores(), 12u);
    EXPECT_EQ(c.core.max_threads, 768u);
    EXPECT_EQ(c.core.fp_lanes, 8u);
    EXPECT_NEAR(c.clocks.uncore_hz, 550e6, 1.0);
    EXPECT_NEAR(c.clocks.shader_to_uncore, 2.47, 1e-9);
    EXPECT_EQ(c.core.maxWarps(), 24u);
    EXPECT_FALSE(c.core.scoreboard);
    EXPECT_FALSE(c.l2.present);
    EXPECT_EQ(c.tech.node_nm, 40u);
}

TEST(GpuConfig, Gtx580MatchesTableII)
{
    GpuConfig c = GpuConfig::gtx580();
    EXPECT_EQ(c.numCores(), 16u);
    EXPECT_EQ(c.core.max_threads, 1536u);
    EXPECT_EQ(c.core.fp_lanes, 32u);
    EXPECT_NEAR(c.clocks.uncore_hz, 882e6, 1.0);
    EXPECT_NEAR(c.clocks.shader_to_uncore, 2.0, 1e-9);
    EXPECT_EQ(c.core.maxWarps(), 48u);
    EXPECT_TRUE(c.core.scoreboard);
    EXPECT_TRUE(c.l2.present);
    EXPECT_EQ(c.l2.total_bytes, 768u * 1024u);
}

TEST(GpuConfig, EmpiricalConstantsMatchPaper)
{
    GpuConfig c = GpuConfig::gt240();
    EXPECT_NEAR(c.calib.int_op_pj, 40.0, 1e-9);    // SectionIII-D
    EXPECT_NEAR(c.calib.fp_op_pj, 75.0, 1e-9);
    EXPECT_NEAR(c.calib.global_sched_w, 3.34, 1e-9);
    EXPECT_NEAR(c.calib.cluster_base_w, 0.692, 1e-9);
    EXPECT_NEAR(c.calib.core_base_dyn_w, 0.199, 1e-9);  // Table V
    EXPECT_NEAR(c.calib.undiff_core_static_w, 0.886, 1e-9);
}

TEST(GpuConfig, ShaderClockDerivedFromRatio)
{
    GpuConfig c = GpuConfig::gt240();
    EXPECT_NEAR(c.clocks.shaderHz(), 550e6 * 2.47, 1.0);
}

TEST(GpuConfig, XmlRoundTripPreservesEveryField)
{
    GpuConfig a = GpuConfig::gtx580();
    a.core.sagu_count = 2;
    a.calib.sfu_op_pj = 123.5;
    a.dram.idd4r = 0.321;
    GpuConfig b = GpuConfig::fromXml(a.toXml());
    EXPECT_EQ(b.name, a.name);
    EXPECT_EQ(b.numCores(), a.numCores());
    EXPECT_EQ(b.core.sagu_count, 2u);
    EXPECT_NEAR(b.calib.sfu_op_pj, 123.5, 1e-9);
    EXPECT_NEAR(b.dram.idd4r, 0.321, 1e-9);
    EXPECT_EQ(b.core.scoreboard, a.core.scoreboard);
    EXPECT_EQ(b.l2.total_bytes, a.l2.total_bytes);
    EXPECT_EQ(b.core.sched_policy, a.core.sched_policy);
    // Round-trip twice: serialization must be stable.
    EXPECT_EQ(b.toXml(), GpuConfig::fromXml(b.toXml()).toXml());
}

TEST(GpuConfig, SparseXmlKeepsDefaults)
{
    GpuConfig c = GpuConfig::fromXml(
        "<gpusimpow><core><param name=\"int_lanes\" value=\"16\"/>"
        "<param name=\"fp_lanes\" value=\"16\"/></core></gpusimpow>");
    EXPECT_EQ(c.core.int_lanes, 16u);
    EXPECT_EQ(c.core.warp_size, 32u);         // default kept
    EXPECT_EQ(c.clusters, 4u);                // default kept
}

TEST(GpuConfig, RejectsWrongRootElement)
{
    EXPECT_THROW(GpuConfig::fromXml("<mcpat/>"), FatalError);
}

TEST(GpuConfig, ValidationCatchesBadGeometry)
{
    GpuConfig c = GpuConfig::gt240();
    c.core.max_threads = 100;   // not a warp multiple
    EXPECT_THROW(GpuConfig::fromXml(c.toXml()), FatalError);

    c = GpuConfig::gt240();
    c.core.smem_bytes = c.core.smem_l1_bytes + 1;
    EXPECT_THROW(GpuConfig::fromXml(c.toXml()), FatalError);

    c = GpuConfig::gt240();
    c.dram.channels = 0;
    EXPECT_THROW(GpuConfig::fromXml(c.toXml()), FatalError);

    c = GpuConfig::gt240();
    c.core.sched_policy = "magic";
    EXPECT_THROW(GpuConfig::fromXml(c.toXml()), FatalError);
}

TEST(GpuConfig, ValidationRejectsZeroCountsAndSizes)
{
    // Each field at zero divides by zero, fails an assertion or never
    // issues somewhere in the models; fromXml must reject it and name
    // the field instead. The L2 geometry ("l2." fields) is only read
    // when an L2 is present.
    struct Field
    {
        const char *name;
        void (*zero)(GpuConfig &);
    };
    const Field fields[] = {
        {"clocks.dram_hz", [](GpuConfig &c) { c.clocks.dram_hz = 0.0; }},
        {"noc.link_bits", [](GpuConfig &c) { c.noc.link_bits = 0; }},
        {"l2.slices", [](GpuConfig &c) { c.l2.slices = 0; }},
        {"l2.assoc", [](GpuConfig &c) { c.l2.assoc = 0; }},
        {"l2.line_bytes", [](GpuConfig &c) { c.l2.line_bytes = 0; }},
        {"max_threads", [](GpuConfig &c) { c.core.max_threads = 0; }},
        {"core.max_blocks", [](GpuConfig &c) { c.core.max_blocks = 0; }},
        {"core.scoreboard_entries",
         [](GpuConfig &c) { c.core.scoreboard_entries = 0; }},
        {"core.issue_width", [](GpuConfig &c) { c.core.issue_width = 0; }},
        {"core.regfile_regs",
         [](GpuConfig &c) { c.core.regfile_regs = 0; }},
        {"core.regfile_banks",
         [](GpuConfig &c) { c.core.regfile_banks = 0; }},
        {"core.operand_collectors",
         [](GpuConfig &c) { c.core.operand_collectors = 0; }},
        {"core.ibuffer_slots",
         [](GpuConfig &c) { c.core.ibuffer_slots = 0; }},
        {"core.icache_bytes",
         [](GpuConfig &c) { c.core.icache_bytes = 0; }},
        {"core.icache_assoc",
         [](GpuConfig &c) { c.core.icache_assoc = 0; }},
        {"core.smem_banks", [](GpuConfig &c) { c.core.smem_banks = 0; }},
        {"core.l1d_assoc", [](GpuConfig &c) { c.core.l1d_assoc = 0; }},
        {"core.line_bytes", [](GpuConfig &c) { c.core.line_bytes = 0; }},
        {"core.const_cache_bytes",
         [](GpuConfig &c) { c.core.const_cache_bytes = 0; }},
        {"core.const_cache_assoc",
         [](GpuConfig &c) { c.core.const_cache_assoc = 0; }},
        {"core.sagu_count", [](GpuConfig &c) { c.core.sagu_count = 0; }},
        {"dram.channel_bits",
         [](GpuConfig &c) { c.dram.channel_bits = 0; }},
        {"dram.banks", [](GpuConfig &c) { c.dram.banks = 0; }},
        {"dram.row_bytes", [](GpuConfig &c) { c.dram.row_bytes = 0; }},
        {"dram.burst_length",
         [](GpuConfig &c) { c.dram.burst_length = 0; }},
    };
    for (const GpuConfig &preset : {GpuConfig::gt240(), GpuConfig::gtx580()}) {
        for (const Field &f : fields) {
            SCOPED_TRACE(preset.name + " " + f.name);
            GpuConfig c = preset;
            f.zero(c);
            if (std::string(f.name).starts_with("l2.") && !c.l2.present) {
                EXPECT_NO_THROW(GpuConfig::fromXml(c.toXml()));
                continue;
            }
            try {
                GpuConfig::fromXml(c.toXml());
                ADD_FAILURE() << "zero accepted";
            } catch (const FatalError &e) {
                EXPECT_NE(std::string(e.what()).find(f.name),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(GpuConfig, SmallGeometryRunsOrIsRejectedByName)
{
    // Small or odd sizes the zero checks let through: each config
    // either builds a power model and runs vectoradd, or fromXml
    // rejects it and names the field. None may crash a model.
    struct Field
    {
        const char *name;
        void (*set)(GpuConfig &, unsigned);
    };
    const Field fields[] = {
        {"clocks.dram_hz",
         [](GpuConfig &c, unsigned v) { c.clocks.dram_hz = v; }},
        {"core.regfile_regs",
         [](GpuConfig &c, unsigned v) { c.core.regfile_regs = v; }},
        {"core.icache_bytes",
         [](GpuConfig &c, unsigned v) { c.core.icache_bytes = v; }},
        {"core.icache_assoc",
         [](GpuConfig &c, unsigned v) { c.core.icache_assoc = v; }},
        {"core.smem_bytes",
         [](GpuConfig &c, unsigned v) { c.core.smem_bytes = v; }},
        {"core.l1d_assoc",
         [](GpuConfig &c, unsigned v) { c.core.l1d_assoc = v; }},
        {"core.line_bytes",
         [](GpuConfig &c, unsigned v) { c.core.line_bytes = v; }},
        {"core.const_cache_bytes",
         [](GpuConfig &c, unsigned v) { c.core.const_cache_bytes = v; }},
        {"core.const_cache_assoc",
         [](GpuConfig &c, unsigned v) { c.core.const_cache_assoc = v; }},
        {"l2.total_bytes",
         [](GpuConfig &c, unsigned v) { c.l2.total_bytes = v; }},
        {"l2.assoc", [](GpuConfig &c, unsigned v) { c.l2.assoc = v; }},
        {"l2.line_bytes",
         [](GpuConfig &c, unsigned v) { c.l2.line_bytes = v; }},
        {"dram.channel_bits",
         [](GpuConfig &c, unsigned v) { c.dram.channel_bits = v; }},
    };
    sim::SweepSession session;
    for (const GpuConfig &preset : {GpuConfig::gt240(), GpuConfig::gtx580()}) {
        for (const Field &f : fields) {
            for (unsigned value : {1u, 3u}) {
                SCOPED_TRACE(preset.name + " " + f.name + " " +
                             std::to_string(value));
                GpuConfig c = preset;
                f.set(c, value);
                sim::Scenario s;
                try {
                    s.config = GpuConfig::fromXml(c.toXml());
                } catch (const FatalError &e) {
                    EXPECT_NE(std::string(e.what()).find(f.name),
                              std::string::npos)
                        << e.what();
                    continue;
                }
                power::GpuPowerModel model(s.config);
                EXPECT_GT(model.area(), 0.0);
                s.workload = "vectoradd";
                EXPECT_TRUE(session.runScenario(s).verified);
            }
        }
    }
}

TEST(GpuConfig, ValidationRejectsMoreThan64WarpsPerCore)
{
    // The presets sit well under the limit.
    EXPECT_EQ(GpuConfig::gt240().core.maxWarps(), 24u);
    EXPECT_EQ(GpuConfig::gtx580().core.maxWarps(), 48u);

    GpuConfig c = GpuConfig::gtx580();
    c.core.max_threads = 64 * c.core.warp_size;
    EXPECT_NO_THROW(GpuConfig::fromXml(c.toXml()));
    c.core.max_threads = 65 * c.core.warp_size;
    try {
        GpuConfig::fromXml(c.toXml());
        FAIL() << "65 warps per core accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("at most 64"),
                  std::string::npos)
            << e.what();
    }
}

TEST(GpuConfig, ValidationCatchesNonPhysicalTemperature)
{
    // A temperature of 0 K (or below, or far above any silicon
    // rating) would silently feed pow(2, dT/20) garbage into every
    // leakage figure; validate() must reject it loudly instead.
    GpuConfig c = GpuConfig::gt240();
    c.tech.temperature = 0.0;
    EXPECT_THROW(GpuConfig::fromXml(c.toXml()), FatalError);

    c = GpuConfig::gt240();
    c.tech.temperature = -273.0;
    EXPECT_THROW(GpuConfig::fromXml(c.toXml()), FatalError);

    c = GpuConfig::gt240();
    c.tech.temperature = 500.1;
    EXPECT_THROW(GpuConfig::fromXml(c.toXml()), FatalError);

    c = GpuConfig::gt240();
    c.tech.temperature = 400.0; // hot but representable
    EXPECT_NO_THROW(GpuConfig::fromXml(c.toXml()));
}

TEST(GpuConfig, LOneDSplitDerived)
{
    GpuConfig c = GpuConfig::gtx580();
    EXPECT_EQ(c.core.lOneDBytes(), 65536u - 49152u);
    GpuConfig d = GpuConfig::gt240();
    EXPECT_EQ(d.core.lOneDBytes(), 0u);
}

TEST(GpuConfig, FromXmlFileReportsMissingFile)
{
    EXPECT_THROW(GpuConfig::fromXmlFile("/nonexistent/file.xml"),
                 FatalError);
}
