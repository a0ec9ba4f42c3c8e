/**
 * @file
 * Set-associative cache timing/occupancy model with true LRU,
 * shared by the I-cache, L1D, constant caches, and L2 slices. Tags
 * only — data correctness is handled by the functional memories.
 */

#ifndef GPUSIMPOW_PERF_CACHE_HH
#define GPUSIMPOW_PERF_CACHE_HH

#include <cstdint>
#include <vector>

namespace gpusimpow {
namespace perf {

/** Cache geometry. */
struct CacheParams
{
    /** Total capacity in bytes. */
    unsigned size_bytes = 16384;
    /** Line size in bytes. */
    unsigned line_bytes = 128;
    /** Ways per set. */
    unsigned assoc = 4;
    /** Allocate lines on write misses (false = write-around). */
    bool allocate_on_write = false;
};

/** LRU set-associative tag array. */
class CacheModel
{
  public:
    explicit CacheModel(const CacheParams &p);

    /**
     * Perform one access.
     * @param addr byte address
     * @param write true for a store
     * @return true on hit
     */
    bool access(uint64_t addr, bool write);

    /** Invalidate all lines (between kernels). */
    void flush();

    /** Accesses so far. */
    uint64_t accesses() const { return _accesses; }
    /** Misses so far. */
    uint64_t misses() const { return _misses; }
    /** Number of sets (for tests). */
    unsigned numSets() const { return _sets; }

  private:
    struct Line
    {
        uint64_t tag = 0;
        bool valid = false;
        uint64_t lru = 0;
    };

    CacheParams _p;
    unsigned _sets;
    unsigned _set_bits;     // log2(_sets)
    unsigned _line_shift;   // log2(line_bytes), 0 if not a power of 2
    std::vector<Line> _lines;   // sets x assoc
    uint64_t _tick = 0;
    uint64_t _accesses = 0;
    uint64_t _misses = 0;

    Line *findLine(uint64_t addr, uint64_t &set_base, uint64_t &tag);
};

} // namespace perf
} // namespace gpusimpow

#endif // GPUSIMPOW_PERF_CACHE_HH
