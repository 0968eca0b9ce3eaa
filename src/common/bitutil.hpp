/**
 * @file
 * Bit-manipulation helpers shared across the LMI code base.
 *
 * All helpers are constexpr and operate on unsigned 64-bit values, which is
 * the natural width for simulated GPU virtual addresses and register values.
 */

#pragma once

#include <cassert>
#include <cstdint>

namespace lmi {

/** True iff @p v is a (nonzero) power of two. */
constexpr bool
isPow2(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** floor(log2(v)) for v > 0. */
constexpr unsigned
log2Floor(uint64_t v)
{
    assert(v != 0);
    unsigned r = 0;
    while (v >>= 1)
        ++r;
    return r;
}

/** ceil(log2(v)) for v > 0. */
constexpr unsigned
log2Ceil(uint64_t v)
{
    assert(v != 0);
    return log2Floor(v) + (isPow2(v) ? 0 : 1);
}

/**
 * Round @p v up to the next power of two. roundUpPow2(0) == 1 so the
 * result is always a valid allocation size.
 */
constexpr uint64_t
roundUpPow2(uint64_t v)
{
    if (v <= 1)
        return 1;
    return uint64_t(1) << log2Ceil(v);
}

/**
 * Number of set bits in @p v. A SWAR count, not std::popcount: without
 * POPCNT in the target (the x86-64 default) that compiles to a libgcc
 * __popcountdi2 call, which the per-instruction lane counts would pay.
 */
constexpr unsigned
popCount(uint64_t v)
{
    v -= (v >> 1) & 0x5555555555555555ull;
    v = (v & 0x3333333333333333ull) + ((v >> 2) & 0x3333333333333333ull);
    v = (v + (v >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return unsigned((v * 0x0101010101010101ull) >> 56);
}

/** Round @p v up to the next multiple of @p align (align must be pow2). */
constexpr uint64_t
alignUp(uint64_t v, uint64_t align)
{
    assert(isPow2(align));
    return (v + align - 1) & ~(align - 1);
}

/** Round @p v down to a multiple of @p align (align must be pow2). */
constexpr uint64_t
alignDown(uint64_t v, uint64_t align)
{
    assert(isPow2(align));
    return v & ~(align - 1);
}

/** A mask with the low @p n bits set; n may be 0..64. */
constexpr uint64_t
lowMask(unsigned n)
{
    assert(n <= 64);
    return n >= 64 ? ~uint64_t(0) : (uint64_t(1) << n) - 1;
}

/** Extract bits [hi:lo] (inclusive) of @p v, right-aligned. */
constexpr uint64_t
bitsOf(uint64_t v, unsigned hi, unsigned lo)
{
    assert(hi >= lo && hi < 64);
    return (v >> lo) & lowMask(hi - lo + 1);
}

/** Insert @p field into bits [hi:lo] of @p v and return the result. */
constexpr uint64_t
insertBits(uint64_t v, unsigned hi, unsigned lo, uint64_t field)
{
    assert(hi >= lo && hi < 64);
    const uint64_t m = lowMask(hi - lo + 1);
    return (v & ~(m << lo)) | ((field & m) << lo);
}

} // namespace lmi
