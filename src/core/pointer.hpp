/**
 * @file
 * LMI in-pointer bounds metadata: the 64-bit pointer layout of paper §V-A.
 *
 * Layout (64-bit simulated virtual address):
 *
 *   63          59 58                               0
 *   +------------+---------------------------------+
 *   |  Extent E  |  Unmodifiable (UM) | Modifiable  |
 *   +------------+---------------------------------+
 *
 * The 5-bit extent encodes the power-of-two allocation size:
 *
 *   E = ceil(max(log2(K), log2(S))) - log2(K) + 1
 *
 * with K the minimum allocation size (default 256 B, so E in 1..31 covers
 * 256 B .. 256 GiB) and E == 0 reserved for invalid pointers. The split
 * between modifiable bits (the low log2(size) bits, free to change under
 * pointer arithmetic) and unmodifiable bits (everything else, which the OCU
 * requires to stay constant) is fully determined by E because allocations
 * are size-aligned.
 */

#pragma once

#include <cstdint>

#include "common/bitutil.hpp"

namespace lmi {

/** Number of extent bits at the top of each pointer. */
inline constexpr unsigned kExtentBits = 5;
/** Lowest bit index of the extent field. */
inline constexpr unsigned kExtentShift = 64 - kExtentBits; // 59
/** Number of real address bits below the extent field. */
inline constexpr unsigned kAddressBits = kExtentShift;
/** Mask selecting the address bits [58:0]. */
inline constexpr uint64_t kAddressMask = lowMask(kAddressBits);
/** Mask selecting the extent bits [63:59]. */
inline constexpr uint64_t kExtentMask = ~kAddressMask;
/** Largest encodable extent value. */
inline constexpr unsigned kMaxExtent = (1u << kExtentBits) - 1; // 31

/**
 * Debug extent encodings (paper §IV-A3): extent values above any
 * practical buffer size are repurposed to record why a pointer was
 * poisoned. With 8 GB of device memory the practical maximum extent is
 * 26, so 27..31 are free.
 */
inline constexpr unsigned kDebugExtentBase = 27;
/** Poison marker the OCU writes on a spatial overflow. */
inline constexpr unsigned kPoisonSpatial = 31;

/**
 * Sub-object extension (this repository's implementation of the
 * intra-object future work the paper leaves open, cf. In-Fat Pointer):
 * four of the five spare encodings carry *sub-K* extents for struct
 * fields smaller than the 256 B minimum allocation:
 *
 *   27 -> 16 B, 28 -> 32 B, 29 -> 64 B, 30 -> 128 B.
 *
 * 31 remains the spatial-poison marker. The feature is opt-in (the
 * LmiSubobjectMechanism); default LMI treats 27..31 uniformly as
 * poison, exactly as the paper describes.
 */
inline constexpr unsigned kSubExtentBase = 27;
inline constexpr unsigned kSubExtentLog2Base = 4; // 2^4 = 16 B
inline constexpr unsigned kSubExtentMax = 30;

/** True when @p e encodes a sub-K field extent. */
constexpr bool
isSubExtent(unsigned e)
{
    return e >= kSubExtentBase && e <= kSubExtentMax;
}

/** Field size for a sub-K extent. */
constexpr uint64_t
subExtentSize(unsigned e)
{
    return uint64_t(1) << (kSubExtentLog2Base + (e - kSubExtentBase));
}

/** Sub-K extent for @p size (16/32/64/128); 0 when not representable. */
constexpr unsigned
subExtentForSize(uint64_t size)
{
    for (unsigned e = kSubExtentBase; e <= kSubExtentMax; ++e)
        if (subExtentSize(e) == size)
            return e;
    return 0;
}

/**
 * Encoder/decoder for LMI pointers.
 *
 * Parameterized on log2 of the minimum allocation size K so the alignment
 * ablation (K sweep) can instantiate non-default codecs; every other
 * path uses kDefaultCodec, the paper's K = 256.
 */
class PointerCodec
{
  public:
    /** Default codec: the paper's K = 256 B. */
    constexpr PointerCodec() : minAllocLog2_(8) {}

    /** @param min_alloc_log2 log2(K); the paper uses 8 (K = 256 B). */
    explicit constexpr PointerCodec(unsigned min_alloc_log2)
        : minAllocLog2_(min_alloc_log2)
    {
    }

    /** log2 of the minimum allocation size. */
    constexpr unsigned minAllocLog2() const { return minAllocLog2_; }

    /** The minimum allocation size K in bytes. */
    constexpr uint64_t minAllocSize() const
    {
        return uint64_t(1) << minAllocLog2_;
    }

    /** Largest buffer size representable by this codec. */
    constexpr uint64_t maxAllocSize() const
    {
        return uint64_t(1) << (minAllocLog2_ + kMaxExtent - 1);
    }

    /**
     * Extent value for a requested size @p size (paper §V-A1).
     * Returns 0 (invalid) when the size exceeds the representable maximum.
     */
    constexpr unsigned
    extentForSize(uint64_t size) const
    {
        if (size == 0 || size > maxAllocSize())
            return 0;
        const unsigned l = size <= minAllocSize()
                               ? minAllocLog2_
                               : log2Ceil(size);
        return l - minAllocLog2_ + 1;
    }

    /** Aligned allocation size for extent @p e (e in 1..31). */
    constexpr uint64_t
    sizeForExtent(unsigned e) const
    {
        return e == 0 ? 0 : uint64_t(1) << (minAllocLog2_ + e - 1);
    }

    /** Round a requested size up to the 2^n allocation the codec uses. */
    constexpr uint64_t
    alignedSize(uint64_t size) const
    {
        const unsigned e = extentForSize(size);
        return sizeForExtent(e);
    }

    /**
     * Build an encoded pointer from an (aligned) base/offset address and the
     * requested buffer size. @p addr must lie within the address bits and be
     * reachable from a size-aligned base.
     */
    constexpr uint64_t
    encode(uint64_t addr, uint64_t size) const
    {
        const unsigned e = extentForSize(size);
        return (uint64_t(e) << kExtentShift) | (addr & kAddressMask);
    }

    /** Extent field of @p ptr. */
    static constexpr unsigned
    extentOf(uint64_t ptr)
    {
        return unsigned(ptr >> kExtentShift);
    }

    /** True iff the pointer carries a nonzero extent. */
    static constexpr bool isValid(uint64_t ptr) { return extentOf(ptr) != 0; }

    /** Address bits of @p ptr (what the memory system actually uses). */
    static constexpr uint64_t addressOf(uint64_t ptr) { return ptr & kAddressMask; }

    /** Allocation size implied by @p ptr's extent (0 if invalid). */
    constexpr uint64_t
    sizeOf(uint64_t ptr) const
    {
        return sizeForExtent(extentOf(ptr));
    }

    /**
     * Base address of the buffer @p ptr points into: because allocations are
     * size-aligned the base is just the address with the modifiable bits
     * cleared (paper §IV-A1).
     */
    constexpr uint64_t
    baseOf(uint64_t ptr) const
    {
        const uint64_t size = sizeOf(ptr);
        return size == 0 ? addressOf(ptr) : (addressOf(ptr) & ~(size - 1));
    }

    /** Number of modifiable (low, free-to-change) bits for extent @p e. */
    constexpr unsigned
    modifiableBits(unsigned e) const
    {
        return e == 0 ? 0 : minAllocLog2_ + e - 1;
    }

    /** Mask of bits that must NOT change under pointer arithmetic. */
    constexpr uint64_t
    unmodifiableMask(unsigned e) const
    {
        // Covers the UM address bits and the extent field itself, so a
        // carry into either region is flagged by the OCU.
        return ~lowMask(modifiableBits(e));
    }

    /**
     * The UM field of @p ptr: the buffer's unique identity used by the
     * liveness tracker (paper §XII-C).
     */
    constexpr uint64_t
    umOf(uint64_t ptr) const
    {
        const unsigned e = extentOf(ptr);
        return e == 0 ? 0 : addressOf(ptr) >> modifiableBits(e);
    }

    /** Invalidate @p ptr by clearing its extent field (temporal safety). */
    static constexpr uint64_t
    invalidate(uint64_t ptr)
    {
        return ptr & kAddressMask;
    }

    /** Replace the extent with a debug poison marker (paper §IV-A3). */
    static constexpr uint64_t
    poison(uint64_t ptr, unsigned marker)
    {
        return (ptr & kAddressMask) | (uint64_t(marker) << kExtentShift);
    }

    /** True when the extent is a repurposed debug/poison value. */
    static constexpr bool
    isDebugExtent(uint64_t ptr)
    {
        return extentOf(ptr) >= kDebugExtentBase;
    }

    /** Valid for dereference: nonzero extent below the debug range. */
    static constexpr bool
    isDereferenceable(uint64_t ptr)
    {
        const unsigned e = extentOf(ptr);
        return e != 0 && e < kDebugExtentBase;
    }

  private:
    unsigned minAllocLog2_;
};

/** The default codec with the paper's K = 256. */
inline constexpr PointerCodec kDefaultCodec{};

} // namespace lmi
