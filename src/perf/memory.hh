/**
 * @file
 * Functional memory spaces: sparse paged global memory (the GDDR5
 * address space), the 64 KB constant segment, and per-block shared
 * memory. These carry real data so kernels compute real results —
 * addresses, divergence, and cache behaviour in the timing model are
 * all driven by actual values, as in GPGPU-Sim's functional core.
 */

#ifndef GPUSIMPOW_PERF_MEMORY_HH
#define GPUSIMPOW_PERF_MEMORY_HH

#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

namespace gpusimpow {
namespace perf {

/** Sparse paged 32-bit global address space. */
class GlobalMemory
{
  public:
    /** Read a 32-bit word; unwritten memory reads as zero. */
    uint32_t load32(uint32_t addr) const;

    /** Write a 32-bit word. */
    void store32(uint32_t addr, uint32_t value);

    /** Read a float. */
    float loadF32(uint32_t addr) const;

    /** Write a float. */
    void storeF32(uint32_t addr, float value);

    /** Bulk upload (host-to-device copy). */
    void write(uint32_t addr, const void *data, size_t bytes);

    /** Bulk download (device-to-host copy). */
    void read(uint32_t addr, void *data, size_t bytes) const;

    /** Number of allocated pages (for tests). */
    size_t pageCount() const { return _pages.size(); }

  private:
    static constexpr uint32_t page_bits = 16;  // 64 KB pages
    static constexpr uint32_t page_size = 1u << page_bits;

    // lint: unordered-ok(addressed by page key only, never iterated;
    // reads/writes go through load/store/read/write, so hash order is
    // unobservable to kernels and verification)
    std::unordered_map<uint32_t, std::vector<uint8_t>> _pages;

    std::vector<uint8_t> &page(uint32_t addr);
    const std::vector<uint8_t> *pageIfPresent(uint32_t addr) const;
};

/** Simple bump allocator over the global address space. */
class GlobalAllocator
{
  public:
    /** Allocations start at a non-zero base to keep 0 as "null". */
    explicit GlobalAllocator(uint32_t base = 0x1000)
        : _next(base)
    {}

    /** Allocate `bytes` rounded up to 256-byte alignment. */
    uint32_t alloc(uint32_t bytes);

  private:
    uint32_t _next;
};

/** The cached constant segment (64 KB). */
class ConstantMemory
{
  public:
    ConstantMemory() : _data(65536, 0) {}

    uint32_t load32(uint32_t addr) const;
    void write(uint32_t addr, const void *data, size_t bytes);

  private:
    std::vector<uint8_t> _data;
};

/** Per-block shared memory. */
class SharedMemory
{
  public:
    explicit SharedMemory(uint32_t bytes) : _data(bytes, 0) {}

    uint32_t load32(uint32_t addr) const;
    void store32(uint32_t addr, uint32_t value);
    uint32_t size() const { return static_cast<uint32_t>(_data.size()); }

  private:
    std::vector<uint8_t> _data;
};

} // namespace perf
} // namespace gpusimpow

#endif // GPUSIMPOW_PERF_MEMORY_HH
