/**
 * @file
 * Bit-manipulation helpers used by caches, coalescers, and register
 * bank hashing.
 */

#ifndef GPUSIMPOW_COMMON_BITUTIL_HH
#define GPUSIMPOW_COMMON_BITUTIL_HH

#include <bit>
#include <cstdint>

namespace gpusimpow {

/** True if v is a power of two (and non-zero). */
constexpr bool
isPow2(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** floor(log2(v)); v must be non-zero (0 yields 0). */
constexpr unsigned
floorLog2(uint64_t v)
{
    return v ? static_cast<unsigned>(std::bit_width(v)) - 1 : 0;
}

/** ceil(log2(v)); v must be non-zero. */
constexpr unsigned
ceilLog2(uint64_t v)
{
    return v <= 1 ? 0 : floorLog2(v - 1) + 1;
}

/** Round v up to the next multiple of align (align > 0). */
constexpr uint64_t
roundUp(uint64_t v, uint64_t align)
{
    return ((v + align - 1) / align) * align;
}

/** Ceiling division. */
constexpr uint64_t
divCeil(uint64_t a, uint64_t b)
{
    return (a + b - 1) / b;
}

/**
 * Number of set bits. A branch-free SWAR count: the baseline x86-64
 * target has no popcnt instruction, so std::popcount compiles to a
 * libgcc call, and the timing core counts bits several times per
 * issued instruction.
 */
constexpr unsigned
popCount(uint64_t v)
{
    v -= (v >> 1) & 0x5555555555555555ull;
    v = (v & 0x3333333333333333ull) + ((v >> 2) & 0x3333333333333333ull);
    v = (v + (v >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return static_cast<unsigned>((v * 0x0101010101010101ull) >> 56);
}

/** Index of the lowest set bit; v must be non-zero. */
constexpr unsigned
countTrailingZeros(uint64_t v)
{
    return static_cast<unsigned>(std::countr_zero(v));
}

/** Mask of the low n bits, n <= 64. */
constexpr uint64_t
lowMask(unsigned n)
{
    return n >= 64 ? ~0ull : (1ull << n) - 1;
}

/**
 * Rotate the n-bit ring v (bits n and up clear, 0 < n <= 64) right by
 * s < n: bit k of the result is bit (k + s) % n of v.
 */
constexpr uint64_t
rotateRight(uint64_t v, unsigned s, unsigned n)
{
    return s == 0 ? v : ((v >> s) | (v << (n - s))) & lowMask(n);
}

} // namespace gpusimpow

#endif // GPUSIMPOW_COMMON_BITUTIL_HH
