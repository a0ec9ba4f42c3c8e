#include "sim/request.hh"

#include <string_view>
#include <vector>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "tech/tech.hh"
#include "workloads/workload.hh"

namespace gpusimpow {
namespace sim {

GpuConfig
resolvePreset(const std::string &name)
{
    if (name == "gt240")
        return GpuConfig::gt240();
    if (name == "gtx580")
        return GpuConfig::gtx580();
    fatal("unknown GPU preset '", name,
          "' (expected gt240 or gtx580)");
}

namespace {

/** Drop the empty entries stray commas produce ("a,b," / "a,,b"). */
std::vector<std::string>
nonEmpty(const std::string &list)
{
    std::vector<std::string> out;
    for (const std::string &entry : split(list, ','))
        if (!entry.empty())
            out.push_back(entry);
    return out;
}

} // namespace

SweepSpec
SweepRequest::toSpec() const
{
    SweepSpec spec;
    if (!config_xml.empty()) {
        spec.configs.push_back(GpuConfig::fromXml(config_xml));
    } else {
        for (const std::string &name : nonEmpty(gpus))
            spec.configs.push_back(resolvePreset(name));
    }
    if (workloads == "all") {
        spec.workloads = gpusimpow::workloads::listWorkloadNames();
    } else {
        spec.workloads = nonEmpty(workloads);
    }
    for (const std::string &node : nonEmpty(nodes))
        spec.tech_nodes.push_back(
            parseUnsigned(node, "sweep nodes", tech::min_node_nm,
                          tech::max_node_nm));
    if (!vf.empty())
        spec.operating_points = OperatingPoint::parseList(vf);

    // The thermal tuning scalars mean nothing without the subsystem.
    if (coolings.empty() && (ambient_set || t_limit_set || throttle))
        fatal("sweep request: ambient/t-limit/throttle require a "
              "cooling axis");
    if (!coolings.empty()) {
        spec.coolings = nonEmpty(coolings);
        // Reject unknown presets before any scenario runs.
        for (const std::string &name : spec.coolings) {
            ThermalConfig probe;
            probe.applyCooling(name);
        }
        // Same bounds config::validate enforces, caught before a
        // simulation is built.
        if (ambient_set && !(ambient_k > 200.0 && ambient_k < 400.0))
            fatal("sweep request: ambient ", ambient_k,
                  " K out of range (200, 400)");
        if (t_limit_set && !(t_limit_k > 200.0 && t_limit_k <= 500.0))
            fatal("sweep request: t-limit ", t_limit_k,
                  " K out of range (200, 500]");
        for (GpuConfig &cfg : spec.configs) {
            if (ambient_set)
                cfg.thermal.ambient_k = ambient_k;
            if (t_limit_set)
                cfg.thermal.t_limit_k = t_limit_k;
            if (throttle)
                cfg.thermal.throttle = true;
            if (cfg.thermal.t_limit_k <= cfg.thermal.ambient_k)
                fatal("sweep request: t-limit (",
                      cfg.thermal.t_limit_k,
                      " K) must exceed the ambient temperature (",
                      cfg.thermal.ambient_k, " K)");
        }
    }
    spec.scale = scale;
    spec.verify = verify;

    // An empty axis would "pass" with zero scenarios; treat it as
    // the user error it is.
    if (spec.configs.empty())
        fatal("sweep request: no GPU configurations given (gpus '",
              gpus, "')");
    if (spec.workloads.empty())
        fatal("sweep request: no workloads given (workloads '",
              workloads, "')");
    if (!nodes.empty() && spec.tech_nodes.empty())
        fatal("sweep request: no process nodes given (nodes '", nodes,
              "')");
    if (!vf.empty() && spec.operating_points.empty())
        fatal("sweep request: no operating points given (vf '", vf,
              "')");
    if (!coolings.empty() && spec.coolings.empty())
        fatal("sweep request: no cooling presets given (coolings '",
              coolings, "')");
    return spec;
}

namespace {

/** One "tag value" line; the axis strings are user input, so embedded
 *  newlines would desynchronize the line framing — reject them. */
void
emitField(std::string &out, const char *tag, const std::string &value)
{
    if (value.find('\n') != std::string::npos)
        fatal("sweep request: field '", tag,
              "' must not contain newlines");
    out += tag;
    out += ' ';
    out += value;
    out += '\n';
}

} // namespace

std::string
SweepRequest::serialize() const
{
    std::string out;
    out += request_magic;
    out += '\n';
    emitField(out, "gpus", gpus);
    emitField(out, "workloads", workloads);
    emitField(out, "nodes", nodes);
    emitField(out, "vf", vf);
    emitField(out, "coolings", coolings);
    out += strformat("scale %u\n", scale);
    out += strformat("verify %d\n", verify ? 1 : 0);
    out += strformat("ambient %d %a\n", ambient_set ? 1 : 0,
                     ambient_k);
    out += strformat("t_limit %d %a\n", t_limit_set ? 1 : 0,
                     t_limit_k);
    out += strformat("throttle %d\n", throttle ? 1 : 0);
    out += strformat("config_xml %zu\n", config_xml.size());
    out += config_xml;
    out += '\n';
    out += "end ";
    out += request_magic;
    out += '\n';
    return out;
}

namespace {

/** Line reader over the serialized form; fatal() messages carry the
 *  line number so a malformed job frame is diagnosable. */
struct LineReader
{
    TextCursor cursor;
    std::size_t line_no = 0;

    std::string_view nextLine()
    {
        if (cursor.remaining() == 0)
            fatal("sweep request: truncated after line ", line_no);
        std::string_view line;
        if (!cursor.line(line))
            fatal("sweep request: unterminated line ", line_no + 1);
        ++line_no;
        return line;
    }

    /** "tag value" line; the value may be empty. */
    std::string_view field(std::string_view tag)
    {
        std::string_view line = nextLine();
        if (line == tag)
            return {};
        if (!startsWith(line, tag) || line.size() == tag.size() ||
            line[tag.size()] != ' ')
            fatal("sweep request: line ", line_no, ": expected '", tag,
                  "', got '", line, "'");
        return line.substr(tag.size() + 1);
    }
};

} // namespace

SweepRequest
SweepRequest::parse(std::string_view text)
{
    SweepRequest req;
    LineReader in{TextCursor(text)};
    if (in.nextLine() != request_magic)
        fatal("sweep request: line 1: bad magic (expected '",
              request_magic, "')");
    req.gpus = in.field("gpus");
    req.workloads = in.field("workloads");
    req.nodes = in.field("nodes");
    req.vf = in.field("vf");
    req.coolings = in.field("coolings");
    req.scale = parseUnsigned(std::string(in.field("scale")),
                              "sweep request: scale", 1, 1u << 20);
    req.verify = TextCursor(in.field("verify"))
                     .flag("sweep request: verify");
    {
        TextCursor vs(in.field("ambient"));
        req.ambient_set = vs.flag("sweep request: ambient");
        req.ambient_k = vs.f64("sweep request: ambient");
    }
    {
        TextCursor vs(in.field("t_limit"));
        req.t_limit_set = vs.flag("sweep request: t_limit");
        req.t_limit_k = vs.f64("sweep request: t_limit");
    }
    req.throttle = TextCursor(in.field("throttle"))
                       .flag("sweep request: throttle");
    std::size_t xml_bytes =
        parseUnsigned(std::string(in.field("config_xml")),
                      "sweep request: config_xml size");
    if (xml_bytes >= in.cursor.remaining())
        fatal("sweep request: line ", in.line_no,
              ": config_xml section truncated (want ", xml_bytes,
              " bytes)");
    std::string_view xml;
    if (!in.cursor.bytes(xml_bytes, xml))
        fatal("sweep request: config_xml section not "
              "newline-terminated");
    req.config_xml = xml;
    std::string_view end = in.nextLine();
    if (!startsWith(end, "end ") || end.substr(4) != request_magic)
        fatal("sweep request: line ", in.line_no,
              ": missing end marker");
    return req;
}

} // namespace sim
} // namespace gpusimpow
