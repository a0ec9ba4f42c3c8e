/**
 * @file
 * Differential oracle of the event-driven timing core. Every
 * registered workload runs on both reference chips straight through
 * perf::Gpu::run in three sampling legs: untraced, traced at 1 us,
 * and traced at an odd 97 shader cycles, a period that does not line
 * up with wake times. vectoradd also runs sampled every cycle. For
 * every kernel the final ChipActivity (every counter, hex-float
 * elapsed time), the cycle count and every interval delta are folded
 * into one FNV-1a 64 digest and compared with
 * tests/golden/activity_digests.txt.
 *
 * The untraced and 1 us anchors were generated by the cycle-stepped
 * core (every busy core stepped every shader cycle), the 97-cycle and
 * every-cycle anchors by the chip-wide clock-jump loop that stepped
 * every busy core each cycle some core was active. So the file is the
 * frozen stepped loop: any skip-ahead that loses or invents a single
 * counter increment, or shifts one sample boundary, changes a digest.
 *
 * One test per chip, so ctest runs them as separate entries.
 * Regenerate intentionally (after a deliberate timing-model change)
 * with:
 *   GPUSIMPOW_REGEN_GOLDEN=1 ./test_skip_ahead
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "config/gpu_config.hh"
#include "perf/gpu.hh"
#include "row_text.hh"
#include "workloads/workload.hh"

using namespace gpusimpow;

namespace {

/** One sampling mode of the oracle. */
struct Leg
{
    const char *mode;
    /** Sampling period in seconds, or 0. */
    double period_s;
    /** Sampling period in shader cycles, or 0. */
    double period_cycles;
    /** The only workload this leg runs, or null for all. */
    const char *only;

    double
    intervalS(const GpuConfig &cfg) const
    {
        // Half a cycle over the period, so the run's truncation to
        // whole cycles cannot land one short.
        return period_cycles > 0.0
                   ? (period_cycles + 0.5) / cfg.clocks.shaderHz()
                   : period_s;
    }
};

constexpr Leg legs[] = {
    {"untraced", 0.0, 0.0, nullptr},
    {"traced", 1e-6, 0.0, nullptr},
    {"odd97", 0.0, 97.0, nullptr},
    {"cycle1", 0.0, 1.0, "vectoradd"},
};

std::string
digestPath()
{
    if (const char *env = std::getenv("GPUSIMPOW_TEST_DATA"))
        return std::string(env) + "/golden/activity_digests.txt";
#ifdef GPUSIMPOW_SOURCE_DIR
    return std::string(GPUSIMPOW_SOURCE_DIR) +
           "/tests/golden/activity_digests.txt";
#else
    return "tests/golden/activity_digests.txt";
#endif
}

bool
regenRequested()
{
    const char *env = std::getenv("GPUSIMPOW_REGEN_GOLDEN");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/** FNV-1a 64 over a byte stream. */
struct Fnv1a
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    add(const std::string &s)
    {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
    }
};

std::string
intervalBounds(double t0, double t1)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%a %a\n", t0, t1);
    return buf;
}

/** True if an anchor key belongs to the chip. */
bool
ofChip(const std::string &key, const std::string &chip)
{
    return key.size() > chip.size() &&
           key.compare(0, chip.size(), chip) == 0 && key[chip.size()] == ' ';
}

/**
 * Digest lines of one chip: "<chip> <workload> <mode> <kernel#>
 * <label>" -> "cycles=<n> intervals=<n> <digest>".
 */
std::map<std::string, std::string>
computeDigests(const std::string &chip, const GpuConfig &cfg)
{
    std::map<std::string, std::string> lines;
    for (const Leg &leg : legs) {
        const double interval_s = leg.intervalS(cfg);
        const bool traced = interval_s > 0.0;
        for (const auto &wl : workloads::makeAllWorkloads()) {
            if (leg.only && wl->name() != leg.only)
                continue;
            perf::Gpu gpu(cfg);
            std::vector<workloads::KernelLaunch> kernels = wl->prepare(gpu);
            for (std::size_t k = 0; k < kernels.size(); ++k) {
                Fnv1a fnv;
                std::size_t intervals = 0;
                perf::Gpu::SampleFn sampler;
                if (traced) {
                    sampler = [&](const perf::ChipActivity &delta,
                                  double t0, double t1) {
                        fnv.add(intervalBounds(t0, t1));
                        fnv.add(test::activityText(delta));
                        ++intervals;
                    };
                }
                perf::RunResult r =
                    gpu.run(kernels[k].prog, kernels[k].launch, sampler,
                            interval_s);
                std::ostringstream cycles;
                cycles << "cycles " << r.cycles << '\n';
                fnv.add(cycles.str());
                fnv.add(test::activityText(r.activity));

                std::ostringstream key;
                key << chip << ' ' << wl->name() << ' ' << leg.mode << ' '
                    << k << ' ' << kernels[k].label;
                char rest[80];
                std::snprintf(rest, sizeof(rest),
                              "cycles=%llu intervals=%zu %016llx",
                              static_cast<unsigned long long>(r.cycles),
                              intervals,
                              static_cast<unsigned long long>(fnv.h));
                lines[key.str()] = rest;
            }
            EXPECT_TRUE(wl->verify(gpu))
                << chip << ' ' << wl->name() << " failed verification";
        }
    }
    return lines;
}

/** Anchor file: key (first five fields) -> the rest of the line. */
std::map<std::string, std::string>
readAnchors()
{
    std::map<std::string, std::string> anchors;
    std::ifstream in(digestPath());
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::size_t pos = 0;
        for (int field = 0; field < 5 && pos != std::string::npos; ++field)
            pos = line.find(' ', pos + 1);
        if (pos == std::string::npos) {
            ADD_FAILURE() << "malformed digest line: " << line;
            continue;
        }
        anchors[line.substr(0, pos)] = line.substr(pos + 1);
    }
    return anchors;
}

/** Rewrite this chip's lines of the anchor file, keeping the others. */
void
writeAnchors(const std::string &chip,
             const std::map<std::string, std::string> &fresh)
{
    std::map<std::string, std::string> all = readAnchors();
    for (auto it = all.begin(); it != all.end();) {
        if (ofChip(it->first, chip))
            it = all.erase(it);
        else
            ++it;
    }
    all.insert(fresh.begin(), fresh.end());
    std::ofstream out(digestPath());
    out << "# FNV-1a 64 digests of perf::Gpu::run per kernel: final\n"
        << "# ChipActivity, cycles and every interval delta (traced:\n"
        << "# 1 us, odd97: 97 shader cycles, cycle1: every cycle).\n"
        << "# <chip> <workload> <mode> <kernel#> <label> "
           "cycles=<n> intervals=<n> <digest>\n";
    for (const auto &[key, rest] : all)
        out << key << ' ' << rest << '\n';
    ASSERT_TRUE(out.good()) << "cannot write " << digestPath();
}

struct Chip
{
    const char *name;
    GpuConfig (*make)();
};

void
PrintTo(const Chip &chip, std::ostream *os)
{
    *os << chip.name;
}

class SkipAhead : public ::testing::TestWithParam<Chip>
{};

TEST_P(SkipAhead, ActivityMatchesTheSteppedDigests)
{
    const Chip &chip = GetParam();
    std::map<std::string, std::string> fresh =
        computeDigests(chip.name, chip.make());
    if (regenRequested()) {
        writeAnchors(chip.name, fresh);
        GTEST_SKIP() << "regenerated " << fresh.size() << " digests for "
                     << chip.name;
    }

    std::map<std::string, std::string> anchors = readAnchors();
    std::size_t expected = 0;
    for (const auto &[key, rest] : anchors) {
        if (!ofChip(key, chip.name))
            continue;
        ++expected;
        auto it = fresh.find(key);
        if (it == fresh.end()) {
            ADD_FAILURE() << "anchored kernel no longer runs: " << key;
            continue;
        }
        EXPECT_EQ(it->second, rest) << key;
    }
    EXPECT_EQ(fresh.size(), expected)
        << "registered kernels and anchors disagree for " << chip.name;
}

INSTANTIATE_TEST_SUITE_P(
    Chips, SkipAhead,
    ::testing::Values(Chip{"gt240", &GpuConfig::gt240},
                      Chip{"gtx580", &GpuConfig::gtx580}),
    [](const ::testing::TestParamInfo<Chip> &param) {
        return std::string(param.param.name);
    });

} // namespace
