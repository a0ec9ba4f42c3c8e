/**
 * @file
 * Access-coalescing and conflict-serialization logic of the
 * load/store unit (Fig. 3): the global-memory coalescer modeled
 * after the NVIDIA patent [24] (merge the per-thread addresses of a
 * warp into as few line-sized transactions as possible), the shared
 * memory bank-conflict checker [25], and the constant-memory
 * address-equality check of SectionIII-C4.
 */

#ifndef GPUSIMPOW_PERF_COALESCER_HH
#define GPUSIMPOW_PERF_COALESCER_HH

#include <cstdint>
#include <vector>

namespace gpusimpow {
namespace perf {

/**
 * Merge per-lane byte addresses into unique aligned segments.
 * @param addrs active lanes' byte addresses
 * @param segment_bytes coalescing granularity (cache line)
 * @param out unique segment base addresses (sorted)
 * @return number of memory transactions generated
 */
unsigned coalesce(const std::vector<uint32_t> &addrs,
                  unsigned segment_bytes, std::vector<uint32_t> &out);

/** Result of the shared-memory bank-conflict check. */
struct BankConflictInfo
{
    /** Distinct words actually read/written. */
    unsigned distinct_words = 0;
    /** Serialization factor: cycles needed = max per-bank load. */
    unsigned serialization = 1;
};

/**
 * Analyze one warp's shared-memory access [25]. Accesses to the
 * same word by multiple lanes broadcast (no conflict); distinct
 * words in the same bank serialize.
 * @param addrs active lanes' byte addresses
 * @param banks number of SMEM banks
 * @param scratch caller-owned work buffer (contents overwritten)
 * @param word_bytes bank interleave granularity (4 bytes)
 */
BankConflictInfo analyzeSmemAccess(const std::vector<uint32_t> &addrs,
                                   unsigned banks,
                                   std::vector<uint32_t> &scratch,
                                   unsigned word_bytes = 4);

/**
 * Constant-memory address-equality check: the number of serialized
 * constant-cache accesses equals the number of distinct addresses
 * (all-equal addresses broadcast in a single access).
 * @param scratch caller-owned work buffer; left holding the
 *        distinct addresses, sorted
 */
unsigned distinctAddresses(const std::vector<uint32_t> &addrs,
                           std::vector<uint32_t> &scratch);

} // namespace perf
} // namespace gpusimpow

#endif // GPUSIMPOW_PERF_COALESCER_HH
