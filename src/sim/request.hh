/**
 * @file
 * SweepRequest: the one description of "what to sweep" shared by
 * every front end. The CLI's `--sweep` flags, the serve client's
 * command line, and the service's wire protocol all build one of
 * these; toSpec() performs the validation and expansion that used to
 * live (duplicated) in the CLI's flag plumbing — resolving presets,
 * parsing axis lists, rejecting empty axes and incoherent thermal
 * flags — so a request is checked identically no matter where it
 * came from. serialize()/parse() give it a stable text form for the
 * sweep service's job submission frames.
 */

#ifndef GPUSIMPOW_SIM_REQUEST_HH
#define GPUSIMPOW_SIM_REQUEST_HH

#include <string>
#include <string_view>
#include <utility>

#include "sim/sweep.hh"

namespace gpusimpow {
namespace sim {

/** Declarative sweep-job description (axis lists still in their
 *  user-facing comma-separated spelling). */
struct SweepRequest
{
    /** Wire-format magic of serialize()/parse(). */
    static constexpr const char *request_magic =
        "gpusimpow-sweep-request v1";

    /** Comma-separated GPU preset names (ignored with config_xml). */
    std::string gpus = "gt240";
    /** Inline XML configuration — a client ships file contents, not
     *  paths, so the server never touches the client filesystem. */
    std::string config_xml;
    /** Comma-separated workload names, or "all". */
    std::string workloads = "vectoradd";
    /** Comma-separated process nodes in nm ("" = no node axis). */
    std::string nodes;
    /** DVFS operating points, "V[:F],..." ("" = no DVFS axis). */
    std::string vf;
    /** Comma-separated cooling presets ("" = no thermal axis). */
    std::string coolings;
    /** Problem-size multiplier. */
    unsigned scale = 1;
    /** Run device-vs-host verification per scenario. */
    bool verify = true;
    /** Thermal scalars folded into every config when a cooling axis
     *  is present (the `_set` flags keep config defaults apart from
     *  an explicit request of the same value). */
    double ambient_k = 0.0;
    bool ambient_set = false;
    double t_limit_k = 0.0;
    bool t_limit_set = false;
    bool throttle = false;

    // ----- named setters, same idiom as EngineOptions -----

    SweepRequest &withGpus(std::string list)
    {
        gpus = std::move(list);
        return *this;
    }
    SweepRequest &withConfigXml(std::string xml)
    {
        config_xml = std::move(xml);
        return *this;
    }
    SweepRequest &withWorkloads(std::string list)
    {
        workloads = std::move(list);
        return *this;
    }
    SweepRequest &withNodes(std::string list)
    {
        nodes = std::move(list);
        return *this;
    }
    SweepRequest &withVf(std::string list)
    {
        vf = std::move(list);
        return *this;
    }
    SweepRequest &withCoolings(std::string list)
    {
        coolings = std::move(list);
        return *this;
    }
    SweepRequest &withScale(unsigned n)
    {
        scale = n;
        return *this;
    }
    SweepRequest &withVerify(bool on)
    {
        verify = on;
        return *this;
    }
    SweepRequest &withAmbient(double kelvin)
    {
        ambient_k = kelvin;
        ambient_set = true;
        return *this;
    }
    SweepRequest &withTLimit(double kelvin)
    {
        t_limit_k = kelvin;
        t_limit_set = true;
        return *this;
    }
    SweepRequest &withThrottle(bool on)
    {
        throttle = on;
        return *this;
    }

    /**
     * Validate and expand into an executable SweepSpec: presets and
     * workload names resolved, axis lists parsed with the same range
     * checks as the CLI flags, thermal scalars folded into every
     * configuration. fatal() on anything incoherent — an empty axis,
     * an unknown preset, thermal scalars without a cooling axis.
     */
    SweepSpec toSpec() const;

    /** Stable text form for service job frames. */
    std::string serialize() const;

    /** Parse a request written by serialize(); fatal() (with
     *  position context) on malformed input. */
    static SweepRequest parse(std::string_view text);
};

/** The built-in configuration named `name` (gt240 or gtx580);
 *  fatal() on any other name. */
GpuConfig resolvePreset(const std::string &name);

} // namespace sim
} // namespace gpusimpow

#endif // GPUSIMPOW_SIM_REQUEST_HH
