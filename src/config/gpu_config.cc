#include "config/gpu_config.hh"

#include <cmath>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <utility>
#include <vector>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "config/xml.hh"

namespace gpusimpow {

namespace {

/** Slowest DRAM command clock validate() accepts, Hz. */
constexpr double min_dram_hz = 1e6;

/**
 * Single-definition parameter binder: the schema below is declared
 * once in describe() and drives both XML loading and XML saving, so
 * the two can never drift apart. Parameters absent from a loaded
 * document keep their in-struct defaults, which keeps user files
 * sparse.
 */
class ParamIo
{
  public:
    enum class Mode { Load, Save };

    ParamIo(Mode mode, const xml::Node *root, std::ostringstream *out)
        : _mode(mode), _out(out)
    {
        if (root)
            _stack.push_back(root);
    }

    /** Enter a named section element for the duration of body(). */
    void
    section(const std::string &name, const std::function<void()> &body)
    {
        if (_mode == Mode::Save) {
            indent();
            (*_out) << "<" << name << ">\n";
            ++_depth;
            body();
            --_depth;
            indent();
            (*_out) << "</" << name << ">\n";
        } else {
            const xml::Node *parent = _stack.back();
            const xml::Node *node = parent ? parent->child(name) : nullptr;
            _stack.push_back(node);
            body();
            _stack.pop_back();
        }
    }

    void
    param(const std::string &name, unsigned &v)
    {
        if (_mode == Mode::Save) {
            write(name, std::to_string(v));
        } else if (const std::string *s = find(name)) {
            long parsed = parseLong(*s, "param " + name);
            if (parsed < 0)
                fatal("parameter '", name, "' must be non-negative");
            v = static_cast<unsigned>(parsed);
        }
    }

    void
    param(const std::string &name, double &v)
    {
        if (_mode == Mode::Save) {
            // Shortest representation that reparses to the same bits:
            // keeps files readable while making toXml() a faithful
            // fingerprint (the engine's Simulator-reuse key) and the
            // save/load round trip exact.
            std::string s = strformat("%.12g", v);
            if (std::strtod(s.c_str(), nullptr) != v)
                s = strformat("%.17g", v);
            write(name, s);
        } else if (const std::string *s = find(name)) {
            v = parseDouble(*s, "param " + name);
        }
    }

    void
    param(const std::string &name, bool &v)
    {
        if (_mode == Mode::Save) {
            write(name, v ? "true" : "false");
        } else if (const std::string *s = find(name)) {
            v = parseBool(*s, "param " + name);
        }
    }

    void
    param(const std::string &name, std::string &v)
    {
        if (_mode == Mode::Save) {
            write(name, v);
        } else if (const std::string *s = find(name)) {
            v = *s;
        }
    }

  private:
    Mode _mode;
    std::ostringstream *_out = nullptr;
    std::vector<const xml::Node *> _stack;
    int _depth = 1;

    void
    indent()
    {
        for (int i = 0; i < _depth; ++i)
            (*_out) << "  ";
    }

    void
    write(const std::string &name, const std::string &value)
    {
        indent();
        (*_out) << "<param name=\"" << name << "\" value=\""
                << xml::escape(value) << "\"/>\n";
    }

    /** Look up a <param name=.../> in the current section, or null. */
    const std::string *
    find(const std::string &name)
    {
        const xml::Node *section = _stack.back();
        if (!section)
            return nullptr;
        for (const auto &child : section->children) {
            if (child->name == "param" &&
                child->attributeOr("name", "") == name) {
                return &child->attribute("value");
            }
        }
        return nullptr;
    }
};

/** The full configuration schema, declared exactly once. */
void
describe(GpuConfig &cfg, ParamIo &io)
{
    io.param("name", cfg.name);
    io.param("chip", cfg.chip);
    io.param("clusters", cfg.clusters);
    io.param("cores_per_cluster", cfg.cores_per_cluster);

    io.section("clocks", [&] {
        io.param("uncore_hz", cfg.clocks.uncore_hz);
        io.param("shader_to_uncore", cfg.clocks.shader_to_uncore);
        io.param("dram_hz", cfg.clocks.dram_hz);
        io.param("freq_scale", cfg.clocks.freq_scale);
    });

    io.section("core", [&] {
        auto &c = cfg.core;
        io.param("max_threads", c.max_threads);
        io.param("warp_size", c.warp_size);
        io.param("max_blocks", c.max_blocks);
        io.param("int_lanes", c.int_lanes);
        io.param("fp_lanes", c.fp_lanes);
        io.param("sfu_units", c.sfu_units);
        io.param("scoreboard", c.scoreboard);
        io.param("scoreboard_entries", c.scoreboard_entries);
        io.param("issue_width", c.issue_width);
        io.param("regfile_regs", c.regfile_regs);
        io.param("regfile_banks", c.regfile_banks);
        io.param("operand_collectors", c.operand_collectors);
        io.param("ibuffer_slots", c.ibuffer_slots);
        io.param("icache_bytes", c.icache_bytes);
        io.param("icache_assoc", c.icache_assoc);
        io.param("smem_l1_bytes", c.smem_l1_bytes);
        io.param("smem_bytes", c.smem_bytes);
        io.param("smem_banks", c.smem_banks);
        io.param("l1d_assoc", c.l1d_assoc);
        io.param("line_bytes", c.line_bytes);
        io.param("const_cache_bytes", c.const_cache_bytes);
        io.param("const_cache_assoc", c.const_cache_assoc);
        io.param("sagu_count", c.sagu_count);
        io.param("coalescing", c.coalescing);
        io.param("sched_policy", c.sched_policy);
        io.param("coalescer_entries", c.coalescer_entries);
        io.param("coalescer_queue", c.coalescer_queue);
        io.param("max_pending_mem", c.max_pending_mem);
        io.param("int_latency", c.int_latency);
        io.param("fp_latency", c.fp_latency);
        io.param("sfu_latency", c.sfu_latency);
        io.param("smem_latency", c.smem_latency);
        io.param("l1_latency", c.l1_latency);
    });

    io.section("l2", [&] {
        io.param("present", cfg.l2.present);
        io.param("total_bytes", cfg.l2.total_bytes);
        io.param("slices", cfg.l2.slices);
        io.param("assoc", cfg.l2.assoc);
        io.param("line_bytes", cfg.l2.line_bytes);
        io.param("latency", cfg.l2.latency);
    });

    io.section("noc", [&] {
        io.param("link_bits", cfg.noc.link_bits);
        io.param("latency", cfg.noc.latency);
    });

    io.section("dram", [&] {
        auto &d = cfg.dram;
        io.param("channels", d.channels);
        io.param("channel_bits", d.channel_bits);
        io.param("chips", d.chips);
        io.param("banks", d.banks);
        io.param("row_bytes", d.row_bytes);
        io.param("burst_length", d.burst_length);
        io.param("latency", d.latency);
        io.param("t_rc", d.t_rc);
        io.param("vdd", d.vdd);
        io.param("idd2n", d.idd2n);
        io.param("idd3n", d.idd3n);
        io.param("idd0", d.idd0);
        io.param("idd4r", d.idd4r);
        io.param("idd4w", d.idd4w);
        io.param("idd5", d.idd5);
        io.param("t_refi", d.t_refi);
        io.param("t_rfc", d.t_rfc);
        io.param("term_pj_per_bit", d.term_pj_per_bit);
    });

    io.section("pcie", [&] {
        io.param("lanes", cfg.pcie.lanes);
        io.param("gbps_per_lane", cfg.pcie.gbps_per_lane);
    });

    io.section("tech", [&] {
        io.param("node_nm", cfg.tech.node_nm);
        io.param("vdd", cfg.tech.vdd);
        io.param("vdd_scale", cfg.tech.vdd_scale);
        io.param("temperature", cfg.tech.temperature);
    });

    io.section("thermal", [&] {
        auto &t = cfg.thermal;
        io.param("enabled", t.enabled);
        io.param("throttle", t.throttle);
        io.param("cooling", t.cooling);
        io.param("ambient_k", t.ambient_k);
        io.param("t_limit_k", t.t_limit_k);
        io.param("r_heatsink_k_per_w", t.r_heatsink_k_per_w);
        io.param("cooling_scale", t.cooling_scale);
        io.param("c_heatsink_j_per_k", t.c_heatsink_j_per_k);
        io.param("r_die_k_mm2_per_w", t.r_die_k_mm2_per_w);
        io.param("c_die_j_per_k_mm2", t.c_die_j_per_k_mm2);
        io.param("r_lateral_k_per_w", t.r_lateral_k_per_w);
        io.param("r_dram_k_per_w", t.r_dram_k_per_w);
        io.param("c_dram_j_per_k", t.c_dram_j_per_k);
    });

    io.section("power_calib", [&] {
        auto &p = cfg.calib;
        io.param("int_op_pj", p.int_op_pj);
        io.param("fp_op_pj", p.fp_op_pj);
        io.param("sfu_op_pj", p.sfu_op_pj);
        io.param("agu_addr_pj", p.agu_addr_pj);
        io.param("global_sched_w", p.global_sched_w);
        io.param("cluster_base_w", p.cluster_base_w);
        io.param("core_base_dyn_w", p.core_base_dyn_w);
        io.param("undiff_core_static_w", p.undiff_core_static_w);
        io.param("undiff_core_area_mm2", p.undiff_core_area_mm2);
        io.param("short_circuit_frac", p.short_circuit_frac);
    });
}

/**
 * fatal() unless `size` bytes in `line`-byte lines of `assoc` ways
 * make at least one set and a power-of-two number of them, as the
 * timing model's set indexing (perf::CacheModel) needs. `fields`
 * names the configuration fields the geometry comes from.
 */
void
checkCacheGeometry(const char *fields, unsigned size, unsigned line,
                   unsigned assoc)
{
    const uint64_t sets = size / (static_cast<uint64_t>(line) * assoc);
    if (!isPow2(sets))
        fatal(fields, ": ", size, " bytes in ", line, "-byte lines, ",
              assoc, " ways make ", sets,
              " sets; a cache needs a power-of-two number of sets");
}

/** Basic cross-field sanity checks; fatal() on user errors. */
void
validate(const GpuConfig &cfg)
{
    const auto &c = cfg.core;
    if (cfg.clusters == 0 || cfg.cores_per_cluster == 0)
        fatal("GPU must have at least one cluster and core");
    if (c.warp_size == 0 || c.max_threads == 0 ||
        c.max_threads % c.warp_size != 0)
        fatal("max_threads must be a positive multiple of warp_size");
    // Counts and sizes the models divide by, size arrays with or
    // schedule by: zero divides by zero or never issues.
    const std::pair<const char *, unsigned> positive[] = {
        {"core.max_blocks", c.max_blocks},
        {"core.scoreboard_entries", c.scoreboard_entries},
        {"core.issue_width", c.issue_width},
        {"core.regfile_regs", c.regfile_regs},
        {"core.regfile_banks", c.regfile_banks},
        {"core.operand_collectors", c.operand_collectors},
        {"core.ibuffer_slots", c.ibuffer_slots},
        {"core.icache_bytes", c.icache_bytes},
        {"core.icache_assoc", c.icache_assoc},
        {"core.smem_banks", c.smem_banks},
        {"core.l1d_assoc", c.l1d_assoc},
        {"core.line_bytes", c.line_bytes},
        {"core.const_cache_bytes", c.const_cache_bytes},
        {"core.const_cache_assoc", c.const_cache_assoc},
        {"core.sagu_count", c.sagu_count},
        {"noc.link_bits", cfg.noc.link_bits},
        {"l2.slices", cfg.l2.present ? cfg.l2.slices : 1},
        {"l2.assoc", cfg.l2.present ? cfg.l2.assoc : 1},
        {"l2.line_bytes", cfg.l2.present ? cfg.l2.line_bytes : 1},
        {"dram.channel_bits", cfg.dram.channel_bits},
        {"dram.banks", cfg.dram.banks},
        {"dram.row_bytes", cfg.dram.row_bytes},
        {"dram.burst_length", cfg.dram.burst_length},
    };
    for (const auto &[field, value] : positive)
        if (value == 0)
            fatal(field, " must be positive");
    if (c.int_lanes == 0 || c.fp_lanes == 0 || c.sfu_units == 0)
        fatal("execution unit counts must be positive");
    if (c.warp_size % 8 != 0)
        fatal("warp_size must be a multiple of the 8-address SAGU width");
    if (c.maxWarps() > 64)
        fatal("max_threads / warp_size = ", c.maxWarps(),
              " warps per core; at most 64 are supported (the warp "
              "schedulers keep one bit per warp in a 64-bit mask)");
    if (c.smem_bytes > c.smem_l1_bytes)
        fatal("smem_bytes cannot exceed the unified smem_l1_bytes");
    if (cfg.l2.present && cfg.l2.total_bytes == 0)
        fatal("an L2 cache marked present needs a non-zero size");
    if (cfg.dram.channels == 0)
        fatal("at least one DRAM channel is required");
    if (cfg.clocks.uncore_hz <= 0 || cfg.clocks.shader_to_uncore <= 0)
        fatal("clock rates must be positive");
    // A DRAM access lasts tens of DRAM cycles; at a few Hz one access
    // outlasts the timing core's cycle bound and the run panics.
    if (!(cfg.clocks.dram_hz >= min_dram_hz))
        fatal("clocks.dram_hz must be at least ", min_dram_hz,
              " Hz, got ", cfg.clocks.dram_hz);
    // Geometries the timing model's caches and the power model's
    // arrays are built from: each must give whole sets and entries.
    // The instruction and constant caches have 64-byte lines
    // (perf::Core).
    checkCacheGeometry("core.icache_bytes, core.icache_assoc",
                       c.icache_bytes, 64, c.icache_assoc);
    checkCacheGeometry("core.const_cache_bytes, core.const_cache_assoc",
                       c.const_cache_bytes, 64, c.const_cache_assoc);
    if (c.lOneDBytes() > 0)
        checkCacheGeometry("core.smem_l1_bytes - core.smem_bytes, "
                           "core.line_bytes, core.l1d_assoc",
                           c.lOneDBytes(), c.line_bytes, c.l1d_assoc);
    if (cfg.l2.present)
        checkCacheGeometry("l2.total_bytes / l2.slices, l2.line_bytes, "
                           "l2.assoc",
                           cfg.l2.total_bytes / cfg.l2.slices,
                           cfg.l2.line_bytes, cfg.l2.assoc);
    if (c.regfile_regs / (4ull * c.regfile_banks) == 0)
        fatal("core.regfile_regs ", c.regfile_regs,
              " must fill one 128-bit entry (4 registers) in each of "
              "core.regfile_banks ", c.regfile_banks, " banks");
    if (c.smem_l1_bytes / (4ull * c.smem_banks) == 0)
        fatal("core.smem_l1_bytes ", c.smem_l1_bytes,
              " must hold one 4-byte word in each of core.smem_banks ",
              c.smem_banks, " banks");
    // The memory system moves a line as bursts of this many bytes.
    if (cfg.dram.channel_bits / 8 * cfg.dram.burst_length == 0)
        fatal("dram.channel_bits ", cfg.dram.channel_bits,
              " / 8 * dram.burst_length ", cfg.dram.burst_length,
              " (the bytes of one burst) must be positive");
    if (cfg.core.sched_policy != "rr" && cfg.core.sched_policy != "gto")
        fatal("unknown sched_policy '", cfg.core.sched_policy,
              "' (expected rr or gto)");
    // A non-physical junction temperature would silently feed
    // pow(2, dT/20) garbage into every leakage number.
    if (!(cfg.tech.temperature > 0.0 && cfg.tech.temperature <= 500.0))
        fatal("tech temperature ", cfg.tech.temperature,
              " K out of range (0, 500]");
    const auto &th = cfg.thermal;
    if (!(th.ambient_k > 200.0 && th.ambient_k < 400.0))
        fatal("thermal ambient_k ", th.ambient_k,
              " K out of range (200, 400)");
    if (!(th.t_limit_k > th.ambient_k && th.t_limit_k <= 500.0))
        fatal("thermal t_limit_k ", th.t_limit_k,
              " K must lie in (ambient_k, 500]");
    if (th.cooling_scale <= 0.0)
        fatal("thermal cooling_scale must be positive, got ",
              th.cooling_scale);
    if (th.r_die_k_mm2_per_w <= 0.0 || th.r_lateral_k_per_w <= 0.0 ||
        th.r_dram_k_per_w <= 0.0)
        fatal("thermal resistances must be positive");
    if (th.c_heatsink_j_per_k <= 0.0 || th.c_die_j_per_k_mm2 <= 0.0 ||
        th.c_dram_j_per_k <= 0.0)
        fatal("thermal capacitances must be positive");
    if (th.throttle && !th.enabled)
        fatal("thermal throttling requires the thermal subsystem "
              "(thermal enabled)");
    cfg.operatingPoint().validate();
}

} // namespace

void
ThermalConfig::applyCooling(const std::string &name)
{
    // Presets scale the auto-sized stock cooler: a constrained
    // (cheap, passive-ish) solution resists more and stores less; a
    // liquid loop resists less and stores much more.
    if (name == "stock") {
        cooling_scale = 1.0;
        c_heatsink_j_per_k = 150.0;
    } else if (name == "constrained") {
        cooling_scale = 1.2;
        c_heatsink_j_per_k = 60.0;
    } else if (name == "liquid") {
        cooling_scale = 0.4;
        c_heatsink_j_per_k = 800.0;
    } else {
        fatal("unknown cooling preset '", name,
              "' (expected stock, constrained, or liquid)");
    }
    cooling = name;
    enabled = true;
}

std::vector<std::string>
ThermalConfig::coolingPresets()
{
    return {"stock", "constrained", "liquid"};
}

std::string
OperatingPoint::label() const
{
    return strformat("v%.4gf%.4g", vdd_scale, freq_scale);
}

double
OperatingPoint::maxFreqScale() const
{
    // Alpha-power MOSFET delay model (Sakurai-Newton): critical-path
    // speed ~ (V - Vt)^alpha / V with alpha ~ 1.3 for short-channel
    // devices and Vt ~ 35% of the nominal supply.
    constexpr double vt = 0.35, alpha = 1.3;
    if (vdd_scale <= vt)
        return 0.0;
    double speed = std::pow(vdd_scale - vt, alpha) / vdd_scale;
    double nominal = std::pow(1.0 - vt, alpha);
    return speed / nominal;
}

void
OperatingPoint::validate() const
{
    // Wide enough for any realistic DVFS ladder; tight enough to
    // catch typos ("9" for "0.9") and sign errors.
    constexpr double lo = 0.25, hi = 2.0;
    if (!(vdd_scale >= lo && vdd_scale <= hi))
        fatal("vdd_scale ", vdd_scale, " out of range [", lo, ", ", hi,
              "]");
    if (!(freq_scale >= lo && freq_scale <= hi))
        fatal("freq_scale ", freq_scale, " out of range [", lo, ", ",
              hi, "]");
}

void
OperatingPoint::applyTo(GpuConfig &cfg) const
{
    validate();
    cfg.tech.vdd_scale = vdd_scale;
    cfg.clocks.freq_scale = freq_scale;
}

OperatingPoint
OperatingPoint::parse(const std::string &spec)
{
    std::vector<std::string> parts = split(trim(spec), ':');
    if (parts.size() > 2 || parts[0].empty() ||
        (parts.size() == 2 && parts[1].empty()))
        fatal("malformed operating point '", spec,
              "' (expected V or V:F, e.g. 0.9 or 0.9:0.8)");
    OperatingPoint op;
    op.vdd_scale = parseDouble(parts[0], "operating point vdd scale");
    op.freq_scale = parts.size() == 2
                        ? parseDouble(parts[1],
                                      "operating point freq scale")
                        : op.vdd_scale;
    op.validate();
    return op;
}

std::vector<OperatingPoint>
OperatingPoint::parseList(const std::string &csv)
{
    std::vector<OperatingPoint> ops;
    for (const std::string &entry : split(csv, ','))
        if (!trim(entry).empty())
            ops.push_back(parse(entry));
    return ops;
}

std::string
GpuConfig::toXml() const
{
    std::ostringstream oss;
    oss << "<?xml version=\"1.0\"?>\n<gpusimpow>\n";
    ParamIo io(ParamIo::Mode::Save, nullptr, &oss);
    // describe() only writes through the reference in Save mode.
    describe(const_cast<GpuConfig &>(*this), io);
    oss << "</gpusimpow>\n";
    return oss.str();
}

GpuConfig
GpuConfig::fromXml(const std::string &text)
{
    auto root = xml::parse(text);
    if (root->name != "gpusimpow")
        fatal("configuration root element must be <gpusimpow>, got <",
              root->name, ">");
    GpuConfig cfg;
    ParamIo io(ParamIo::Mode::Load, root.get(), nullptr);
    describe(cfg, io);
    validate(cfg);
    return cfg;
}

GpuConfig
GpuConfig::fromXmlFile(const std::string &path)
{
    auto root = xml::parseFile(path);
    if (root->name != "gpusimpow")
        fatal("configuration root element must be <gpusimpow>, got <",
              root->name, ">");
    GpuConfig cfg;
    ParamIo io(ParamIo::Mode::Load, root.get(), nullptr);
    describe(cfg, io);
    validate(cfg);
    return cfg;
}

GpuConfig
GpuConfig::gt240()
{
    // Table II, GT240 column: 12 cores in 4 clusters, 768 threads and
    // 8 FUs per core, 550 MHz uncore at a 2.47x shader ratio, 24
    // in-flight warps, no scoreboard (barrel execution), no L2, 40 nm.
    GpuConfig cfg;
    cfg.name = "GeForce GT240";
    cfg.chip = "GT215";
    cfg.clusters = 4;
    cfg.cores_per_cluster = 3;

    cfg.clocks.uncore_hz = 550e6;
    cfg.clocks.shader_to_uncore = 2.47;
    cfg.clocks.dram_hz = 850e6;

    cfg.core.max_threads = 768;
    cfg.core.warp_size = 32;
    cfg.core.max_blocks = 8;
    cfg.core.int_lanes = 8;
    cfg.core.fp_lanes = 8;
    cfg.core.sfu_units = 2;
    cfg.core.scoreboard = false;
    cfg.core.regfile_regs = 16384;
    cfg.core.regfile_banks = 16;
    cfg.core.operand_collectors = 4;
    cfg.core.smem_l1_bytes = 16384;
    cfg.core.smem_bytes = 16384;  // Tesla-class: all SMEM, no L1D
    cfg.core.smem_banks = 16;
    cfg.core.sagu_count = 4;

    cfg.l2.present = false;
    cfg.l2.total_bytes = 0;

    cfg.dram.channels = 4;
    cfg.dram.channel_bits = 32;
    cfg.dram.chips = 8;
    cfg.dram.latency = 110;

    cfg.tech.node_nm = 40;
    cfg.tech.vdd = 1.05;

    // SectionIII-D / Table V empirical constants (measured on this
    // very card in the paper).
    cfg.calib.int_op_pj = 40.0;
    cfg.calib.fp_op_pj = 75.0;
    cfg.calib.global_sched_w = 3.34;
    cfg.calib.cluster_base_w = 0.692;
    cfg.calib.core_base_dyn_w = 0.199;
    cfg.calib.undiff_core_static_w = 0.886;
    cfg.calib.undiff_core_area_mm2 = 6.35;
    return cfg;
}

GpuConfig
GpuConfig::gtx580()
{
    // Table II, GTX580 column: 16 cores in 4 clusters, 1536 threads
    // and 32 FUs per core, 882 MHz uncore at 2x shader ratio, 48
    // in-flight warps, scoreboard, 768 KB L2, 40 nm.
    GpuConfig cfg;
    cfg.name = "GeForce GTX580";
    cfg.chip = "GF110";
    cfg.clusters = 4;
    cfg.cores_per_cluster = 4;

    cfg.clocks.uncore_hz = 882e6;
    cfg.clocks.shader_to_uncore = 2.0;
    cfg.clocks.dram_hz = 1002e6;

    cfg.core.max_threads = 1536;
    cfg.core.warp_size = 32;
    cfg.core.max_blocks = 8;
    cfg.core.int_lanes = 32;
    cfg.core.fp_lanes = 32;
    cfg.core.sfu_units = 4;
    cfg.core.scoreboard = true;
    cfg.core.scoreboard_entries = 4;
    cfg.core.issue_width = 2;
    cfg.core.regfile_regs = 32768;
    cfg.core.regfile_banks = 16;
    cfg.core.operand_collectors = 8;
    cfg.core.smem_l1_bytes = 65536;
    cfg.core.smem_bytes = 49152;  // 48 KB SMEM / 16 KB L1D split
    cfg.core.smem_banks = 32;
    cfg.core.sagu_count = 4;
    cfg.core.max_pending_mem = 128;

    cfg.l2.present = true;
    cfg.l2.total_bytes = 768 * 1024;
    cfg.l2.slices = 6;
    cfg.l2.assoc = 8;

    cfg.noc.link_bits = 512;

    cfg.dram.channels = 6;
    cfg.dram.channel_bits = 64;
    cfg.dram.chips = 12;
    cfg.dram.latency = 90;

    cfg.tech.node_nm = 40;
    cfg.tech.vdd = 1.00;

    // The empirical EU energies were derived on the GT240 and, as the
    // paper notes in SectionV-A, transfer well to the GTX580. Base
    // power scales with the much larger front-end/fixed-function area.
    cfg.calib.int_op_pj = 40.0;
    cfg.calib.fp_op_pj = 75.0;
    cfg.calib.sfu_op_pj = 400.0;
    cfg.calib.global_sched_w = 7.1;
    cfg.calib.cluster_base_w = 1.45;
    cfg.calib.core_base_dyn_w = 0.62;
    cfg.calib.undiff_core_static_w = 3.78;
    cfg.calib.undiff_core_area_mm2 = 12.9;
    return cfg;
}

} // namespace gpusimpow
