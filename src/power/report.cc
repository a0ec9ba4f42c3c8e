#include "power/report.hh"

#include <sstream>

#include "common/strutil.hh"

namespace gpusimpow {
namespace power {

PowerNode &
PowerNode::child(const std::string &child_name)
{
    children.emplace_back();
    children.back().name = child_name;
    return children.back();
}

const PowerNode *
PowerNode::find(const std::string &path) const
{
    size_t slash = path.find('/');
    std::string head = path.substr(0, slash);
    // An empty segment ("", "Cores//WCU", trailing '/') names no
    // component; reject it outright instead of letting it match a
    // node that happens to carry an empty name.
    if (head.empty())
        return nullptr;
    for (const auto &c : children) {
        if (c.name == head) {
            if (slash == std::string::npos)
                return &c;
            return c.find(path.substr(slash + 1));
        }
    }
    return nullptr;
}

double
PowerNode::totalStatic() const
{
    double total = sub_leakage_w + gate_leakage_w;
    for (const auto &c : children)
        total += c.totalStatic();
    return total;
}

double
PowerNode::totalSubLeakage() const
{
    double total = sub_leakage_w;
    for (const auto &c : children)
        total += c.totalSubLeakage();
    return total;
}

double
PowerNode::totalGateLeakage() const
{
    double total = gate_leakage_w;
    for (const auto &c : children)
        total += c.totalGateLeakage();
    return total;
}

void
PowerNode::scaleSubLeakage(double factor)
{
    sub_leakage_w *= factor;
    for (auto &c : children)
        c.scaleSubLeakage(factor);
}

double
PowerNode::totalDynamic() const
{
    double total = runtime_dynamic_w;
    for (const auto &c : children)
        total += c.totalDynamic();
    return total;
}

double
PowerNode::totalArea() const
{
    double total = area_mm2;
    for (const auto &c : children)
        total += c.totalArea();
    return total;
}

double
PowerNode::totalPeak() const
{
    double total = peak_dynamic_w;
    for (const auto &c : children)
        total += c.totalPeak();
    return total;
}

std::string
PowerNode::format(int indent) const
{
    std::ostringstream oss;
    std::string pad(static_cast<size_t>(indent) * 2, ' ');
    oss << strformat("%s%-28s area %8.3f mm2  static %8.4f W  "
                     "dynamic %8.4f W\n",
                     pad.c_str(), name.c_str(), totalArea(),
                     totalStatic(), totalDynamic());
    for (const auto &c : children)
        oss << c.format(indent + 1);
    return oss.str();
}

std::string
PowerNode::flatten(const std::string &prefix) const
{
    std::ostringstream oss;
    std::string path = prefix.empty() ? name : prefix + "/" + name;
    oss << strformat("%s area_mm2 %.9g\n", path.c_str(), area_mm2);
    oss << strformat("%s sub_leakage_w %.9g\n", path.c_str(),
                     sub_leakage_w);
    oss << strformat("%s gate_leakage_w %.9g\n", path.c_str(),
                     gate_leakage_w);
    oss << strformat("%s peak_dynamic_w %.9g\n", path.c_str(),
                     peak_dynamic_w);
    oss << strformat("%s runtime_dynamic_w %.9g\n", path.c_str(),
                     runtime_dynamic_w);
    for (const auto &c : children)
        oss << c.flatten(path);
    return oss.str();
}

std::string
PowerReport::format() const
{
    std::ostringstream oss;
    oss << gpu.format();
    oss << strformat("External GDDR5 DRAM: %.3f W\n", dram_w);
    oss << strformat("Chip total: static %.3f W, dynamic %.3f W, "
                     "total %.3f W, area %.1f mm2\n",
                     staticPower(), dynamicPower(), totalPower(),
                     area());
    return oss.str();
}

} // namespace power
} // namespace gpusimpow
