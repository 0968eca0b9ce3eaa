/**
 * @file
 * Device-side kernel malloc()/free() model (paper §IV-E, Fig. 5; §V-B
 * "Heap Memory").
 *
 * The CUDA in-kernel allocator serves thousands of concurrent threads by
 * sharding the heap into *buffer groups*. Each group serves one chunk
 * unit — the paper's Fig. 5 observes multiples of 80 bytes for small
 * requests and 2208 bytes for larger ones — and small buffers share a
 * single group header, so threads in different warps can manipulate
 * allocation metadata without contending on one lock. Rounding requests
 * up to a chunk multiple is what gives the baseline its pre-existing
 * fragmentation of up to ~50%, the observation that makes LMI's 2^n
 * rounding cheap in comparison.
 *
 * The LMI variant rounds requests to a power of two >= K instead and
 * returns extent-encoded, size-aligned pointers.
 *
 * This is a facade over MessageHeap: every SM is a context with
 * private sizeclass caches and a remote-free list, warp shards map to
 * open buffer groups, and the simulator replays the remote frees at
 * each slice boundary in canonical (sm, post order) so `sim_threads`
 * stays byte-identical. The chunk geometry is the fixed
 * kChunkGeometry.
 */

#pragma once

#include <cstdint>
#include <optional>

#include "alloc/msg_heap.hpp"
#include "arch/mem_map.hpp"
#include "common/stats.hpp"
#include "core/fault.hpp"
#include "core/pointer.hpp"

namespace lmi {

/**
 * Chunk-group device-heap allocator.
 */
class DeviceHeapAllocator
{
  public:
    struct Config
    {
        AllocPolicy policy = AllocPolicy::Packed;
        uint64_t region_base = kHeapBase;
        uint64_t region_size = kHeapSize;
        /** Encode extent bits in returned pointers (LMI). */
        bool encode_extent = false;
        /** One-time allocation: never reuse freed chunks (§XII-C). */
        bool quarantine_frees = false;
        /** Contexts with private caches (one per SM). */
        unsigned contexts = 1;
        PointerCodec codec{};
    };

    DeviceHeapAllocator() : DeviceHeapAllocator(Config{}, nullptr) {}
    explicit DeviceHeapAllocator(Config config, StatRegistry* stats = nullptr);

    /**
     * Thread @p tid on SM @p sm allocates @p size bytes.
     * Threads of different warps draw from different groups, mirroring the
     * parallel-allocation sharding of the real runtime; different SMs
     * never share a group.
     * @return device pointer (extent-encoded under LMI), 0 on exhaustion.
     */
    uint64_t
    malloc(uint32_t sm, uint32_t tid, uint64_t size)
    {
        return core_.alloc(sm, tid, size);
    }

    /**
     * Thread @p tid on SM @p sm frees @p ptr. A free issued by a
     * non-owning SM retires the extent immediately but recycles the
     * range through the owner's remote-free list.
     * @return runtime-detected free faults.
     */
    MaybeFault
    free(uint32_t sm, uint32_t tid, uint64_t ptr)
    {
        (void)tid;
        return core_.free(sm, ptr);
    }

    /** Replay pending remote frees in canonical order. */
    void drainRemote() { core_.drainRemote(); }

    /** Find the live allocation containing @p addr. */
    std::optional<AllocBlock>
    findLive(uint64_t addr) const
    {
        const MessageHeap::Extent* e = core_.findLive(addr);
        if (e == nullptr)
            return std::nullopt;
        return static_cast<const AllocBlock&>(*e);
    }

    /** Full extent record (epoch, owner) at exactly @p base. */
    const MessageHeap::Extent*
    extentAt(uint64_t base) const
    {
        return core_.extentAt(base);
    }

    /** Bytes reserved (chunk-rounded) for currently live buffers. */
    uint64_t liveReservedBytes() const { return core_.liveReservedBytes(); }

    /** Bytes requested by currently live buffers. */
    uint64_t liveRequestedBytes() const { return core_.liveRequestedBytes(); }

    /** Peak reserved bytes over time. */
    uint64_t peakReservedBytes() const { return core_.peakReservedBytes(); }

    /** Number of buffer groups created so far. */
    size_t groupCount() const { return core_.groupCount(); }

    /** The message-passing core (bench/stat introspection). */
    const MessageHeap& core() const { return core_; }

  private:
    static MessageHeap::Config coreConfig(const Config& config);

    MessageHeap core_;
};

} // namespace lmi
