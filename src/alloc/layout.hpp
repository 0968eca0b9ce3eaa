/**
 * @file
 * Static buffer layout engine for stack frames and shared memory
 * (paper §V-B "Stack Memory" / "Shared Memory", Fig. 7).
 *
 * The compiler (stack) and the kernel driver (shared memory) both need to
 * place a list of statically known buffers inside one region:
 *
 *  - Packed: baseline layout — buffers packed with natural 8/16-byte
 *    alignment, as CUDA's compiler does;
 *  - Pow2Aligned: LMI layout — every buffer rounds to 2^n >= K and is
 *    placed size-aligned so its pointer can carry an extent. Buffers are
 *    placed largest-first to minimize alignment padding.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "alloc/msg_heap.hpp"
#include "core/pointer.hpp"

namespace lmi {

/** One statically declared buffer (stack array, __shared__ array...). */
struct BufferSpec
{
    std::string name;
    uint64_t size = 0; ///< requested bytes
};

/** Placement result for one buffer. */
struct BufferPlacement
{
    std::string name;
    uint64_t offset = 0;   ///< byte offset within the region
    uint64_t requested = 0;
    uint64_t reserved = 0; ///< rounded size actually occupied
};

/** Complete layout of a region. */
struct RegionLayout
{
    std::vector<BufferPlacement> buffers; ///< in original spec order
    uint64_t total_bytes = 0;             ///< region footprint
    /** Region base must be aligned to this for extents to be decodable. */
    uint64_t required_alignment = 1;

    /** Placement of buffer @p name; fatal if absent. */
    const BufferPlacement& find(const std::string& name) const;
};

/**
 * Compute a layout for @p specs under @p policy.
 *
 * @param specs        the buffers to place
 * @param policy       Packed (baseline) or Pow2Aligned (LMI)
 * @param packed_align alignment for the packed policy (default 16)
 */
RegionLayout layoutBuffers(const std::vector<BufferSpec>& specs,
                           AllocPolicy policy,
                           uint64_t packed_align = 16);

} // namespace lmi
