#include "perf/coalescer.hh"

#include <algorithm>

#include "common/logging.hh"

namespace gpusimpow {
namespace perf {

namespace {

/** Sort `v` and drop repeats; returns the distinct count. Lane
 *  addresses usually arrive ascending already (unit-stride and
 *  broadcast accesses), so the sort runs only when they do not. */
unsigned
sortUnique(std::vector<uint32_t> &v)
{
    if (!std::is_sorted(v.begin(), v.end()))
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

    // Distinct words, then the largest number of them in one bank.
    scratch.clear();
    for (uint32_t a : addrs)
        scratch.push_back(a / word_bytes);
    info.distinct_words = sortUnique(scratch);
    // Per-bank tallies live in the scratch past the distinct words.
    const std::size_t words = scratch.size();
    scratch.resize(words + banks, 0);
    unsigned worst = 1;
    for (std::size_t i = 0; i < words; ++i)
        worst = std::max(worst, ++scratch[words + scratch[i] % banks]);
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
