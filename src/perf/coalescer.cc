#include "perf/coalescer.hh"

#include <algorithm>

#include "common/logging.hh"

namespace gpusimpow {
namespace perf {

namespace {

/** Sort `v` and drop repeats; returns the distinct count. */
unsigned
sortUnique(std::vector<uint32_t> &v)
{
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return static_cast<unsigned>(v.size());
}

} // namespace

unsigned
coalesce(const std::vector<uint32_t> &addrs, unsigned segment_bytes,
         std::vector<uint32_t> &out)
{
    GSP_ASSERT(segment_bytes > 0, "zero coalescing granularity");
    out.clear();
    for (uint32_t a : addrs)
        out.push_back(a / segment_bytes * segment_bytes);
    return sortUnique(out);
}

BankConflictInfo
analyzeSmemAccess(const std::vector<uint32_t> &addrs, unsigned banks,
                  std::vector<uint32_t> &scratch, unsigned word_bytes)
{
    GSP_ASSERT(banks > 0 && word_bytes > 0, "bad SMEM geometry");
    BankConflictInfo info;
    if (addrs.empty())
        return info;

    // Distinct words, then the longest run of one bank among them.
    scratch.clear();
    for (uint32_t a : addrs)
        scratch.push_back(a / word_bytes);
    info.distinct_words = sortUnique(scratch);
    for (uint32_t &w : scratch)
        w %= banks;
    std::sort(scratch.begin(), scratch.end());
    unsigned worst = 1;
    unsigned run = 1;
    for (std::size_t i = 1; i < scratch.size(); ++i) {
        run = scratch[i] == scratch[i - 1] ? run + 1 : 1;
        worst = std::max(worst, run);
    }
    info.serialization = worst;
    return info;
}

unsigned
distinctAddresses(const std::vector<uint32_t> &addrs,
                  std::vector<uint32_t> &scratch)
{
    scratch.assign(addrs.begin(), addrs.end());
    return sortUnique(scratch);
}

} // namespace perf
} // namespace gpusimpow
