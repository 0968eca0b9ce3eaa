/**
 * @file
 * Host-side device-memory allocator: the cudaMalloc()/cudaFree() model
 * (paper §V-B, "Global Memory").
 *
 * Two layout policies:
 *
 *  - Packed: the baseline. Blocks are 256-byte aligned (the documented
 *    cudaMalloc minimum alignment) and packed, so a request of
 *    2^n + eps bytes reserves 2^n + 256 bytes.
 *  - Pow2Aligned: the LMI policy. Requests round up to the next power of
 *    two >= K and the block is size-aligned, so the returned pointer can
 *    carry its extent in the upper bits.
 *
 * This is a thin facade over MessageHeap (sizeclass freelists,
 * per-context caches, remote-free lists, epoch-stamped extent table).
 * The host API stays single-context — `alloc`/`free` run as context 0
 * — while `allocFrom`/`freeFrom` expose the per-context paths that the
 * churn workloads drive. The mechanisms still read per-block
 * bounds through findLive/findAny, and the fragmentation experiment
 * (Fig. 4) still reads the reserved-byte accounting.
 */

#pragma once

#include <cstdint>

#include "alloc/msg_heap.hpp"
#include "arch/mem_map.hpp"
#include "common/stats.hpp"
#include "core/fault.hpp"
#include "core/pointer.hpp"

namespace lmi {

/**
 * Message-passing allocator over one virtual region (host API).
 */
class GlobalAllocator
{
  public:
    struct Config
    {
        AllocPolicy policy = AllocPolicy::Packed;
        uint64_t region_base = kGlobalBase;
        uint64_t region_size = kGlobalSize;
        /** Encode the LMI extent into returned pointers (Pow2Aligned). */
        bool encode_extent = false;
        /**
         * One-time allocation (Markus/FFmalloc style): freed blocks are
         * quarantined and their virtual addresses never reused, so stale
         * aliases can never point at a new owner. Used by the §XII-C
         * liveness-tracking extension.
         */
        bool quarantine_frees = false;
        /** Contexts with private caches (churn workload contexts). */
        unsigned contexts = 1;
        PointerCodec codec{};
    };

    GlobalAllocator() : GlobalAllocator(Config{}, nullptr) {}
    explicit GlobalAllocator(Config config, StatRegistry* stats = nullptr);

    /**
     * Allocate @p size bytes (context 0).
     * @return the (possibly extent-encoded) device pointer, or 0 on
     *         exhaustion.
     */
    uint64_t alloc(uint64_t size) { return core_.alloc(0, 0, size); }

    /**
     * Free a previously returned pointer (context 0).
     * @return InvalidFree/DoubleFree faults as the CUDA runtime would
     *         report them; nullopt on success.
     */
    MaybeFault free(uint64_t ptr) { return core_.free(0, ptr); }

    /** Allocate from context @p ctx's caches. */
    uint64_t
    allocFrom(uint32_t ctx, uint64_t size)
    {
        return core_.alloc(ctx, 0, size);
    }

    /** Free from context @p ctx (cross-context frees wait in the
     *  owner's remote-free list until the next drain). */
    MaybeFault
    freeFrom(uint32_t ctx, uint64_t ptr)
    {
        return core_.free(ctx, ptr);
    }

    /** Replay pending remote frees in canonical order. */
    void drainRemote() { core_.drainRemote(); }

    /** Find the block containing @p addr (live blocks only). */
    const AllocBlock*
    findLive(uint64_t addr) const
    {
        return core_.findLive(addr);
    }

    /**
     * Find the current block (live or retired) containing @p addr —
     * the allocator's ground truth for fault classification.
     */
    const AllocBlock*
    findAny(uint64_t addr) const
    {
        return core_.findAny(addr);
    }

    /** Full extent record (epoch, owner) at exactly @p base. */
    const MessageHeap::Extent*
    extentAt(uint64_t base) const
    {
        return core_.extentAt(base);
    }

    /** Peak of the sum of reserved bytes over time (Fig. 4 RSS proxy). */
    uint64_t peakReservedBytes() const { return core_.peakReservedBytes(); }

    /** Currently reserved bytes. */
    uint64_t liveReservedBytes() const { return core_.liveReservedBytes(); }

    /** Sum of requested bytes over live blocks. */
    uint64_t liveRequestedBytes() const { return core_.liveRequestedBytes(); }

    /** The message-passing core (bench/stat introspection). */
    const MessageHeap& core() const { return core_; }

  private:
    static MessageHeap::Config coreConfig(const Config& config);

    MessageHeap core_;
};

} // namespace lmi
