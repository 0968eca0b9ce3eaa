/**
 * @file
 * Sizeclass machinery for the message-passing allocator.
 *
 * Every recyclable block belongs to exactly one sizeclass, identified
 * by its reserved (rounded) byte size. Rounding preserves the three
 * historical policies bit-for-bit:
 *
 *  - Fig. 5 chunked (device heap, Packed): multiples of the 80-byte
 *    small chunk for requests <= 1024 bytes, multiples of the
 *    2208-byte large chunk above, with requests needing more than one
 *    group (128 chunks) placed as dedicated "huge" blocks rounded to a
 *    chunk multiple.
 *  - Packed (host cudaMalloc): alignUp(max(size,1), packed_align).
 *  - Pow2Aligned (LMI): PointerCodec::alignedSize — next power of two
 *    >= K, size-aligned so the extent fits in pointer bits.
 *
 * Blocks whose reserved size exceeds kMaxSlabBlock bypass sizeclass
 * freelists entirely and are carved/coalesced directly in the range
 * allocator ("huge" class). The ceiling is generous (256 KiB) because
 * the heap is simulated: a freelisted block costs one list entry, not
 * resident memory, and host-side cudaMalloc churn lives in the
 * 64-256 KiB band where first-fit hole scans would dominate.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace lmi {

/** Sentinel class index for range-allocator-direct (huge) blocks. */
inline constexpr uint32_t kHugeClass = UINT32_MAX;

/** Largest reserved size served from slab freelists (non-chunked). */
inline constexpr uint64_t kMaxSlabBlock = 256 * 1024;

/** Target slab footprint: a slab holds ~kSlabBytes/reserved blocks. */
inline constexpr uint64_t kSlabBytes = 64 * 1024;

/** Fig. 5 chunk geometry (paper §IV-E). */
struct ChunkGeometry
{
    /** Chunk unit for small requests. */
    uint64_t small_chunk = 80;
    /** Chunk unit for large requests. */
    uint64_t large_chunk = 2208;
    /** Requests above this many bytes use the large unit. */
    uint64_t small_limit = 1024;
    /** Chunks per buffer group. */
    unsigned chunks_per_group = 128;
    /** Bytes of group header shared by a group's buffers. */
    uint64_t group_header = 128;

    constexpr uint64_t
    chunkUnitFor(uint64_t size) const
    {
        return size <= small_limit ? small_chunk : large_chunk;
    }
};

/** The device heap's geometry, the one the paper observes. */
inline constexpr ChunkGeometry kChunkGeometry{};

/** One sizeclass: fixed reserved size, optionally chunk-denominated. */
struct ClassInfo
{
    uint64_t reserved = 0; ///< block size in bytes
    uint64_t chunk = 0;    ///< chunk unit (chunked mode), else 0
    unsigned chunks = 0;   ///< chunks per block (chunked mode), else 0
};

/**
 * Registry of sizeclasses, created on demand. Indices are assigned in
 * first-seen order, which is deterministic because every mutation of
 * the allocator happens in canonical op order.
 */
class SizeClassRegistry
{
  public:
    /** Class for @p reserved bytes, creating it on first sight. */
    uint32_t
    classFor(uint64_t reserved, uint64_t chunk = 0, unsigned chunks = 0)
    {
        auto it = index_.find(reserved);
        if (it != index_.end())
            return it->second;
        const uint32_t cls = uint32_t(classes_.size());
        classes_.push_back(ClassInfo{reserved, chunk, chunks});
        index_.emplace(reserved, cls);
        return cls;
    }

    const ClassInfo& info(uint32_t cls) const { return classes_[cls]; }
    size_t count() const { return classes_.size(); }

  private:
    std::vector<ClassInfo> classes_;
    std::unordered_map<uint64_t, uint32_t> index_;
};

} // namespace lmi
