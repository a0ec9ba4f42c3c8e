#include "sim/sweep.hh"

#include <cstdio>
#include <map>
#include <utility>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace gpusimpow {
namespace sim {

bool
Scenario::replayable() const
{
    return !(config.thermal.enabled && config.thermal.throttle);
}

namespace {

/** The configuration with every field the performance simulator never
 *  reads pinned to a fixed value: timingFingerprint() serializes it. */
GpuConfig
timingView(const GpuConfig &cfg)
{
    GpuConfig t = cfg;
    // Pin everything the performance simulator never reads to fixed
    // values so it cannot split the key. The perf side consumes the
    // chip organization, clocks (freq_scale included — it shifts the
    // DRAM-to-uncore cycle ratio), core/cache/NoC geometry, and the
    // DRAM geometry/timing fields; it never touches the process
    // node, supplies, calibration energies, thermal boundary, or
    // PCIe/DRAM electricals — those only turn counters into watts.
    t.name.clear();
    t.chip.clear();
    t.tech = TechConfig{};
    t.thermal = ThermalConfig{};
    t.calib = PowerCalibConfig{};
    t.pcie = PcieConfig{};
    DramConfig dram;
    dram.channels = cfg.dram.channels;
    dram.channel_bits = cfg.dram.channel_bits;
    dram.burst_length = cfg.dram.burst_length;
    dram.latency = cfg.dram.latency;
    t.dram = dram;
    return t;
}

/** The workload half of Scenario::snapshotKey(). */
std::string
workloadTag(const Scenario &s)
{
    return strformat("#workload=%s scale=%u verify=%d",
                     s.workload.c_str(), s.scale, s.verify ? 1 : 0);
}

} // namespace

std::string
Scenario::snapshotKey() const
{
    return timingFingerprint(config) + workloadTag(*this);
}

std::string
timingFingerprint(const GpuConfig &cfg)
{
    return timingView(cfg).toXml();
}

std::vector<SnapshotUnit>
snapshotUnits(const std::vector<Scenario> &scenarios)
{
    // Distinct timing views with their serialized fingerprints: a
    // sweep has a handful, since its node, supply and cooling axes
    // never enter a view.
    std::vector<std::pair<GpuConfig, std::string>> views;
    // (view, workload tag) -> unit
    std::map<std::pair<std::size_t, std::string>, std::size_t> unit_of;
    std::vector<SnapshotUnit> units;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        GpuConfig view = timingView(scenarios[i].config);
        std::size_t v = 0;
        while (v < views.size() && !(views[v].first == view))
            ++v;
        if (v == views.size()) {
            std::string fp = view.toXml();
            views.emplace_back(std::move(view), std::move(fp));
        }
        std::string tag = workloadTag(scenarios[i]);
        auto ins = unit_of.emplace(std::make_pair(v, tag), units.size());
        if (ins.second)
            units.push_back({views[v].second + tag, {}});
        units[ins.first->second].members.push_back(i);
    }
    return units;
}

std::size_t
SweepSpec::size() const
{
    std::size_t nodes = tech_nodes.empty() ? 1 : tech_nodes.size();
    std::size_t ops =
        operating_points.empty() ? 1 : operating_points.size();
    std::size_t cools = coolings.empty() ? 1 : coolings.size();
    return configs.size() * nodes * ops * cools * workloads.size();
}

std::vector<Scenario>
SweepSpec::expand() const
{
    std::vector<Scenario> scenarios;
    scenarios.reserve(size());
    // An explicit operating-point axis labels every point (identity
    // included); the implicit single pass keeps pre-axis labels.
    bool label_ops = !operating_points.empty();
    std::vector<OperatingPoint> ops = operating_points;
    if (ops.empty())
        ops.push_back(OperatingPoint{});
    for (const GpuConfig &base : configs) {
        // One pass per requested node; node 0 means "as configured".
        std::vector<unsigned> nodes = tech_nodes;
        if (nodes.empty())
            nodes.push_back(0);
        for (unsigned node : nodes) {
            GpuConfig node_cfg = base;
            if (node != 0) {
                node_cfg.tech.node_nm = node;
                node_cfg.tech.vdd = -1.0; // node-nominal supply
            }
            for (const OperatingPoint &op : ops) {
                GpuConfig op_cfg = node_cfg;
                // An empty axis means "each config's own operating
                // point": leave whatever scales the base config
                // carries untouched.
                if (label_ops)
                    op.applyTo(op_cfg);
                std::string op_prefix =
                    op_cfg.name + "/" +
                    std::to_string(op_cfg.tech.node_nm) + "nm/" +
                    (label_ops ? op.label() + "/" : "");
                // Same contract for the cooling axis: an empty axis
                // keeps the config's own thermal section and labels.
                std::vector<std::string> cools = coolings;
                bool label_cooling = !cools.empty();
                if (cools.empty())
                    cools.push_back("");
                for (const std::string &cooling : cools) {
                    GpuConfig cfg = op_cfg;
                    std::string prefix = op_prefix;
                    if (label_cooling) {
                        cfg.thermal.applyCooling(cooling);
                        prefix += cooling + "/";
                    }
                    for (const std::string &wl : workloads) {
                        Scenario s;
                        s.index = scenarios.size();
                        s.config = cfg;
                        s.op = cfg.operatingPoint();
                        s.workload = wl;
                        s.scale = scale;
                        s.verify = verify;
                        s.label = prefix + wl;
                        scenarios.push_back(std::move(s));
                    }
                }
            }
        }
    }
    return scenarios;
}

SweepResult::SweepResult() : SweepResult(0) {}

SweepResult::SweepResult(std::size_t scenario_count)
    : _mutex(std::make_unique<std::mutex>()), _rows(scenario_count)
{
}

void
SweepResult::set(ScenarioResult result)
{
    std::lock_guard<std::mutex> lock(*_mutex);
    std::size_t index = result.scenario.index;
    GSP_ASSERT(index < _rows.size(),
               "scenario index ", index, " out of range ", _rows.size());
    _rows[index] = std::move(result);
}

std::size_t
SweepResult::size() const
{
    std::lock_guard<std::mutex> lock(*_mutex);
    return _rows.size();
}

const ScenarioResult &
SweepResult::at(std::size_t index) const
{
    std::lock_guard<std::mutex> lock(*_mutex);
    GSP_ASSERT(index < _rows.size(),
               "scenario index ", index, " out of range ", _rows.size());
    return _rows[index];
}

void
SweepResult::setTelemetry(SweepTelemetry telemetry)
{
    std::lock_guard<std::mutex> lock(*_mutex);
    _telemetry = std::move(telemetry);
}

std::string
SweepTelemetry::toJson() const
{
    // Decimal seconds are fine here: the document is diagnostics, not
    // one of the bit-exact *serialize* round-trip formats.
    return strformat("{\n\"schema\":\"gpusimpow-metrics-1\",\n"
                     "\"sweep\":{\"scenarios\":%zu,\"captured\":%zu,"
                     "\"replayed\":%zu,\"governed\":%zu,"
                     "\"workers\":%u,\"wall_s\":%.6f},\n",
                     scenarios, captured, replayed, governed, workers,
                     wall_s) +
           metrics.jsonBody() + "\n}\n";
}

double
SweepResult::totalSimulatedTime() const
{
    std::lock_guard<std::mutex> lock(*_mutex);
    double total = 0.0;
    for (const ScenarioResult &r : _rows)
        total += r.time_s;
    return total;
}

std::string
SweepResult::formatTable() const
{
    std::lock_guard<std::mutex> lock(*_mutex);
    std::string out;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-40s %9s %9s %10s %10s %11s %12s %6s\n",
                  "scenario", "kernels", "clk[MHz]", "time[us]",
                  "power[W]", "energy[mJ]", "EDP[uJ*s]", "verify");
    out += line;
    for (const ScenarioResult &r : _rows) {
        std::snprintf(line, sizeof(line),
                      "%-40s %9zu %9.0f %10.1f %10.2f %11.3f %12.4f "
                      "%6s",
                      r.scenario.label.c_str(), r.kernel_count,
                      r.shader_hz / 1e6, r.time_s * 1e6,
                      r.avg_power_w, r.energy_j * 1e3, r.edp() * 1e9,
                      r.verified ? "PASS" : "FAIL");
        out += line;
        // Thermal rows only grow a suffix, so thermal-free sweeps
        // render exactly as before the subsystem existed.
        if (r.thermal) {
            std::snprintf(line, sizeof(line), "  Tmax %.1f K%s%s",
                          r.t_max_k,
                          r.throttled ? strformat(" THROTTLED x%.3g",
                                                  r.min_freq_scale)
                                            .c_str()
                                      : "",
                          r.thermal_converged ? "" : " RUNAWAY");
            out += line;
        }
        out += '\n';
    }
    return out;
}

} // namespace sim
} // namespace gpusimpow
