#include "oracle.hh"

#include <cstdlib>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/strutil.hh"

namespace perfbench {

using namespace gpusimpow;

namespace {

/** FNV-1a over 64-bit words and byte strings. */
class Digest
{
  public:
    void word(uint64_t w)
    {
        for (int i = 0; i < 8; ++i) {
            _h ^= (w >> (8 * i)) & 0xff;
            _h *= 0x100000001b3ULL;
        }
    }
    void real(double d)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        word(bits);
    }
    void text(const std::string &s)
    {
        word(s.size());
        for (unsigned char c : s) {
            _h ^= c;
            _h *= 0x100000001b3ULL;
        }
    }
    uint64_t value() const { return _h; }

  private:
    uint64_t _h = 0xcbf29ce484222325ULL;
};

void
node(Digest &d, const power::PowerNode &n)
{
    d.text(n.name);
    d.real(n.area_mm2);
    d.real(n.sub_leakage_w);
    d.real(n.gate_leakage_w);
    d.real(n.peak_dynamic_w);
    d.real(n.runtime_dynamic_w);
    d.word(n.children.size());
    for (const power::PowerNode &c : n.children)
        node(d, c);
}

void
activity(Digest &d, const perf::ChipActivity &a)
{
    auto field = [&d](const char *, uint64_t v) { d.word(v); };
    for (const perf::CoreActivity &c : a.cores)
        c.forEach(field);
    a.mem.forEach(field);
    for (uint64_t c : a.cluster_busy_cycles)
        d.word(c);
    d.word(a.gpu_busy_cycles);
    d.word(a.blocks_dispatched);
    d.word(a.shader_cycles);
    d.real(a.elapsed_s);
}

void
kernel(Digest &d, const sim::KernelResult &k)
{
    d.text(k.label);
    d.word(k.repeatable);
    const KernelRun &r = k.run;
    d.word(r.perf.cycles);
    d.real(r.perf.time_s);
    d.word(r.perf.instructions);
    activity(d, r.perf.activity);
    node(d, r.report.gpu);
    d.real(r.report.dram_w);
    d.real(r.report.short_circuit_w);
    d.real(r.report.elapsed_s);
    d.word(r.trace.size());
    for (const PowerSample &s : r.trace) {
        d.real(s.t0);
        d.real(s.t1);
        d.real(s.dynamic_w);
        d.real(s.static_w);
        d.real(s.dram_w);
    }
    const ThermalResult &t = r.thermal;
    d.word(t.enabled);
    d.word(t.converged);
    d.word(t.throttled);
    d.word(t.iterations);
    d.real(t.t_max_k);
    d.real(t.heatsink_k);
    d.real(t.op.vdd_scale);
    d.real(t.op.freq_scale);
    for (double k_temp : t.block_temps_k)
        d.real(k_temp);
    d.word(t.trace.size());
    for (const ThermalSample &s : t.trace) {
        d.real(s.t0);
        d.real(s.t1);
        for (double k_temp : s.temps_k)
            d.real(k_temp);
    }
}

} // namespace

uint64_t
rowDigest(const sim::ScenarioResult &row)
{
    Digest d;
    d.text(row.scenario.label);
    d.word(row.kernels.size());
    for (const sim::KernelResult &k : row.kernels)
        kernel(d, k);
    for (double v : {row.time_s, row.energy_j, row.avg_power_w,
                     row.static_w, row.area_mm2, row.vdd, row.shader_hz,
                     row.t_max_k, row.min_freq_scale})
        d.real(v);
    d.word(row.verified);
    d.word(row.thermal);
    d.word(row.throttled);
    d.word(row.thermal_converged);
    return d.value();
}

void
RowStats::add(const RowStats &o)
{
    rows += o.rows;
    cycles += o.cycles;
    issued_insts += o.issued_insts;
    variant_intervals += o.variant_intervals;
    thermal_iters += o.thermal_iters;
    thermal_solves += o.thermal_solves;
}

JobOracle
makeOracle(const sim::SweepResult &result)
{
    JobOracle oracle;
    RowStats &s = oracle.stats;
    for (const sim::ScenarioResult &row : result.rows()) {
        oracle.digests.push_back(rowDigest(row));
        s.rows += 1;
        for (const sim::KernelResult &k : row.kernels) {
            s.cycles += static_cast<double>(k.run.perf.cycles);
            s.issued_insts += static_cast<double>(
                k.run.perf.activity.sumCores(
                    &perf::CoreActivity::issued_insts));
            s.variant_intervals +=
                static_cast<double>(k.run.trace.size());
            if (k.run.thermal.enabled) {
                s.thermal_iters += k.run.thermal.iterations;
                s.thermal_solves += 1;
            }
        }
    }
    oracle.table = result.formatTable();
    return oracle;
}

void
writeOracles(std::ostream &out, const std::vector<JobOracle> &oracles)
{
    out << "perfbench-oracle v1 " << oracles.size() << '\n';
    for (const JobOracle &o : oracles) {
        const RowStats &s = o.stats;
        out << strformat("job %zu %zu %a %a %a %a %a %a\n",
                         o.digests.size(), o.table.size(), s.rows,
                         s.cycles, s.issued_insts, s.variant_intervals,
                         s.thermal_iters, s.thermal_solves);
        for (uint64_t d : o.digests)
            out << strformat("%016llx\n",
                             static_cast<unsigned long long>(d));
        out << o.table;
    }
}

std::vector<JobOracle>
readOracles(std::istream &in)
{
    auto bad = [] {
        throw std::runtime_error("malformed oracle file");
    };
    std::string magic, version, tag;
    std::size_t jobs = 0;
    if (!(in >> magic >> version >> jobs) ||
        magic != "perfbench-oracle" || version != "v1")
        bad();
    std::vector<JobOracle> oracles(jobs);
    for (JobOracle &o : oracles) {
        std::size_t rows = 0, table_bytes = 0;
        std::string f[6];
        if (!(in >> tag >> rows >> table_bytes) || tag != "job")
            bad();
        for (std::string &field : f)
            in >> field;
        if (!in)
            bad();
        RowStats &s = o.stats;
        double *dst[6] = {&s.rows,          &s.cycles,
                          &s.issued_insts,  &s.variant_intervals,
                          &s.thermal_iters, &s.thermal_solves};
        for (int i = 0; i < 6; ++i)
            *dst[i] = std::strtod(f[i].c_str(), nullptr);
        for (std::size_t r = 0; r < rows; ++r) {
            std::string hex;
            if (!(in >> hex))
                bad();
            o.digests.push_back(std::stoull(hex, nullptr, 16));
        }
        in.get(); // the digest line's newline
        o.table.resize(table_bytes);
        if (!in.read(o.table.data(),
                     static_cast<std::streamsize>(table_bytes)))
            bad();
    }
    return oracles;
}

std::string
checkRows(const sim::SweepResult &result, const JobOracle &oracle)
{
    if (result.size() != oracle.digests.size())
        return strformat("%zu rows, oracle has %zu", result.size(),
                         oracle.digests.size());
    for (std::size_t i = 0; i < result.size(); ++i) {
        const sim::ScenarioResult &row = result.at(i);
        if (!row.verified)
            return "row " + row.scenario.label + " failed verification";
        if (rowDigest(row) != oracle.digests[i])
            return strformat("row %zu (%s) differs from the oracle", i,
                             row.scenario.label.c_str());
    }
    return "";
}

std::string
checkTable(const std::string &table, const JobOracle &oracle)
{
    if (table == oracle.table)
        return "";
    std::size_t at = 0;
    while (at < table.size() && at < oracle.table.size() &&
           table[at] == oracle.table[at])
        ++at;
    std::size_t line_start = oracle.table.rfind('\n', at);
    line_start = line_start == std::string::npos ? 0 : line_start + 1;
    return "service table differs from the oracle at: " +
           oracle.table.substr(line_start,
                               oracle.table.find('\n', line_start) -
                                   line_start);
}

} // namespace perfbench
