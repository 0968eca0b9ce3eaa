/**
 * @file
 * Bottom layer of the allocator stack: a first-fit, coalescing range
 * allocator over one contiguous virtual region.
 *
 * The message-passing allocator (msg_heap.hpp) carves slabs and huge
 * blocks from it; everything smaller is recycled through sizeclass
 * freelists and never comes back here.
 */

#pragma once

#include <cstdint>
#include <map>

#include "common/bitutil.hpp"

namespace lmi {

class RangeAllocator
{
  public:
    RangeAllocator() = default;
    RangeAllocator(uint64_t base, uint64_t size)
    {
        if (size > 0)
            free_[base] = size;
    }

    /**
     * Carve @p size bytes at @p alignment, first-fit over the coalesced
     * hole list. @return the base address, or 0 on exhaustion.
     */
    uint64_t
    alloc(uint64_t size, uint64_t alignment)
    {
        for (auto it = free_.begin(); it != free_.end(); ++it) {
            const uint64_t hole_base = it->first;
            const uint64_t hole_size = it->second;
            const uint64_t aligned = alignUp(hole_base, alignment);
            const uint64_t pre_gap = aligned - hole_base;
            if (pre_gap + size > hole_size)
                continue;

            // Split the hole: [hole_base, aligned) stays free, the
            // block occupies [aligned, aligned+size), the tail stays
            // free.
            const uint64_t tail = hole_size - pre_gap - size;
            free_.erase(it);
            if (pre_gap > 0)
                free_[hole_base] = pre_gap;
            if (tail > 0)
                free_[aligned + size] = tail;
            return aligned;
        }
        return 0;
    }

    /** Return [base, base+size) to the hole list, coalescing. */
    void
    free(uint64_t base, uint64_t size)
    {
        auto next = free_.lower_bound(base);
        if (next != free_.end() && base + size == next->first) {
            size += next->second;
            next = free_.erase(next);
        }
        if (next != free_.begin()) {
            auto prev = std::prev(next);
            if (prev->first + prev->second == base) {
                base = prev->first;
                size += prev->second;
                free_.erase(prev);
            }
        }
        free_[base] = size;
    }

  private:
    /** Free extents: base -> size, coalesced. */
    std::map<uint64_t, uint64_t> free_;
};

} // namespace lmi
