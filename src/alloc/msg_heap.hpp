/**
 * @file
 * The message-passing allocator behind both CUDA allocators of paper
 * §V-B: host cudaMalloc/cudaFree (HeapKind::Global) and in-kernel
 * malloc/free (HeapKind::Device). The LMI change is the same for both:
 * round a request up to 2^n >= K, align the block to its size and
 * encode the extent in the returned pointer (AllocPolicy::Pow2Aligned).
 *
 * The kind fixes everything else, so a Config names only the kind, the
 * policy, the region, quarantining and the context count:
 *
 *  - Global places Packed blocks at cudaMalloc's 256-byte granule.
 *  - Device under Packed rounds to Fig. 5 chunk units (80 B for small
 *    requests, 2208 B for large) carved from 128-byte-header buffer
 *    groups, one set per warp shard, so threads of different warps
 *    never share a group. Groups and huge blocks place at 16 bytes.
 *    This rounding is the baseline's pre-existing fragmentation of up
 *    to ~50% that makes LMI's 2^n rounding cheap on the heap (§IV-E).
 *  - Each kind has its own fault strings and stat names
 *    (`alloc.global.*` / `alloc.heap.*`). The kernel heap counts malloc
 *    attempts and counts quarantined frees as frees; cudaMalloc counts
 *    successful allocations and counts quarantined bytes instead.
 *
 * Architecture (snmalloc-style, adapted to a deterministic simulator):
 *
 *  - An **epoch-stamped extent table**: one record per address range,
 *    ranges never overlapping. Reusing a range bumps its epoch and
 *    mints a fresh allocation id, so LMI bounds minting, fault
 *    attribution and the safety oracle's Live/Invalidated/Reallocated
 *    views survive arbitrary churn without unbounded history growth.
 *    The records live in a std::map ordered by base (stable node
 *    addresses) and are also indexed by exact base in an
 *    open-addressed hash table. The hash index serves every
 *    exact-base query in one probe: free(), extentAt(), and the
 *    recycle case of minting, a retired record at the same base with
 *    the same reserved size. Because records never overlap, such a
 *    record proves that no other record lies inside the new block, so
 *    the recycle needs no trim scan. The ordered map serves only what
 *    needs order: fresh carves (trimming or splitting retired records
 *    the new block overlaps, and the live-overlap panic), huge-block
 *    erase, and interior-pointer lookups (findLive/findAny, used on
 *    the LMI fault path and by memcheck).
 *  - **Sizeclass-segregated freelists with per-context caches**: each
 *    context (SM, or runner job) owns LIFO caches of recycled blocks,
 *    spilling to a shared central freelist when they overflow. The
 *    common alloc/free path is O(1).
 *  - **Remote frees as messages**: a free issued by a context that
 *    does not own the block retires the extent record immediately
 *    (fault checks are synchronous) but appends the range to its
 *    owner's remote-free list, replayed at slice boundaries in
 *    canonical (from, post order) so `sim_threads` stays
 *    byte-identical.
 *  - A first-fit coalescing **range allocator** underneath, carving
 *    slabs (Fig. 5 buffer groups in chunked mode) and serving "huge"
 *    blocks directly.
 *
 * Threading contract: all mutations (alloc/free/drainRemote) are
 * externally serialized — the simulator performs them on the commit
 * thread in canonical op order. Lookups (findLive/findAny) are
 * concurrent-read-safe while no mutation runs, which is how the
 * protection mechanisms call them from SM worker threads mid-slice.
 */

#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "alloc/range_alloc.hpp"
#include "alloc/sizeclass.hpp"
#include "common/stats.hpp"
#include "core/fault.hpp"
#include "core/pointer.hpp"

namespace lmi {

/** Block placement policy. */
enum class AllocPolicy : uint8_t {
    Packed,     ///< baseline: tightly packed (granule set by the HeapKind)
    Pow2Aligned ///< LMI: 2^n-rounded, size-aligned, extent-encoded
};

/** Which CUDA allocator a heap models. */
enum class HeapKind : uint8_t {
    Global, ///< host cudaMalloc/cudaFree
    Device  ///< in-kernel malloc/free (Fig. 5 buffer groups)
};

/** One allocation record, as the mechanisms and tests see it. */
struct AllocBlock
{
    uint64_t base = 0;      ///< start VA (extent-stripped)
    uint64_t requested = 0; ///< bytes the caller asked for
    uint64_t reserved = 0;  ///< bytes the allocator consumed
    bool live = false;      ///< false after free
    uint64_t id = 0;        ///< monotonically increasing allocation id
};

/** Per-context local cache capacity (blocks per sizeclass). */
inline constexpr size_t kCacheCap = 64;
/**
 * Batch size behind RemoteStats::batches: the count models a
 * 32-message outbox per (from, owner) pair, flushed when full and at
 * every drain.
 */
inline constexpr size_t kRemoteBatch = 32;
/** Warp shards per context for chunked-group locality. */
inline constexpr unsigned kShardsPerCtx = 4;

class MessageHeap
{
  public:
    /** Extent-table record: an AllocBlock plus reuse lineage. */
    struct Extent : AllocBlock
    {
        uint32_t epoch = 0;       ///< times this range has been re-minted
        uint32_t owner = 0;       ///< context whose freelists recycle it
        uint32_t cls = kHugeClass;
    };

    struct Config
    {
        HeapKind kind = HeapKind::Global;
        /** Pow2Aligned pointers also carry their extent (LMI). */
        AllocPolicy policy = AllocPolicy::Packed;
        /** Region to carve. Size 0 selects the kind's region of the
         *  address map: all of global memory, or the device heap. */
        uint64_t region_base = 0;
        uint64_t region_size = 0;
        /** One-time allocation: freed ranges are never recycled. */
        bool quarantine_frees = false;
        /** Contexts with private caches (SMs, churn contexts). */
        unsigned contexts = 1;
    };

    /** Remote-free machinery counters (bench/bench_alloc_throughput). */
    struct RemoteStats
    {
        uint64_t posted = 0;      ///< remote frees issued
        /**
         * Modelled batch count: ceil(k / kRemoteBatch) for each
         * (from, owner) run of k messages a drain replays, so it is
         * current only right after a drain.
         */
        uint64_t batches = 0;
        uint64_t drained = 0;     ///< messages replayed by drains
        uint64_t drain_calls = 0; ///< drainRemote invocations
    };

    /** Counts into @p stats under the kind's names when non-null. */
    explicit MessageHeap(Config config, StatRegistry* stats = nullptr);

    /**
     * Context @p ctx (thread @p tid for warp-shard locality) allocates
     * @p size bytes. @return the (possibly extent-encoded) pointer, or
     * 0 on exhaustion.
     */
    uint64_t alloc(uint32_t ctx, uint32_t tid, uint64_t size);

    /**
     * Context @p ctx frees @p ptr. The extent is retired synchronously;
     * a cross-context free waits in the owner's remote-free list.
     * @return InvalidFree/DoubleFree faults; nullopt on success.
     */
    MaybeFault free(uint32_t ctx, uint64_t ptr);

    /**
     * Replay all pending remote frees into their owners' caches, owner
     * by owner, in canonical (from, post order). Called at slice
     * boundaries (and by the alloc slow path before reporting
     * exhaustion).
     */
    void drainRemote();

    /** Find the live extent containing @p addr. */
    const Extent* findLive(uint64_t addr) const;

    /** Find the extent (live or retired) containing @p addr. */
    const Extent* findAny(uint64_t addr) const;

    /** Exact-base lookup (live or retired). */
    const Extent* extentAt(uint64_t base) const;

    uint64_t liveReservedBytes() const { return live_reserved_; }
    uint64_t liveRequestedBytes() const { return live_requested_; }
    uint64_t peakReservedBytes() const { return peak_reserved_; }

    /** Fig. 5 buffer groups opened so far (chunked mode). */
    size_t groupCount() const { return group_count_; }
    /** Non-chunked slabs carved so far. */
    size_t slabCount() const { return slab_count_; }
    /** Extent-table records currently held. */
    size_t extentCount() const { return extents_.size(); }

    /** Bytes carved out of the region (slabs + groups + huge blocks). */
    uint64_t footprintBytes() const { return footprint_; }
    uint64_t peakFootprintBytes() const { return peak_footprint_; }
    /** Recycled blocks parked in caches + central freelists. */
    uint64_t cachedBlocks() const { return cached_blocks_; }
    /** Remote frees still waiting for a drain. */
    uint64_t remotePending() const
    {
        return remote_stats_.posted - remote_stats_.drained;
    }

    const RemoteStats& remoteStats() const { return remote_stats_; }

    /** This heap. Kept only because perfbench still reads the heap
     *  through `core()`; a later benchmark change drops that call, then
     *  this accessor. */
    const MessageHeap& core() const { return *this; }

  private:
    /** The per-kind constants (msg_heap.cpp). */
    struct KindTraits;
    static const KindTraits& traitsOf(HeapKind kind);

    /** Rounded shape of one request. */
    struct Shape
    {
        uint64_t reserved = 0;
        uint64_t align = 0;
        uint32_t cls = kHugeClass;
        uint64_t chunk = 0;
        unsigned chunks = 0;
    };

    /** Chunked-mode bump group (a Fig. 5 buffer group being filled). */
    struct OpenGroup
    {
        uint64_t base = 0;   ///< storage start (after header)
        uint64_t chunk = 0;  ///< chunk unit
        unsigned cursor = 0; ///< chunks carved so far
        unsigned cap = 0;    ///< chunk capacity
    };

    /** Non-chunked bump slab for one sizeclass. */
    struct OpenSlab
    {
        uint64_t cursor = 0;
        uint64_t end = 0;
    };

    /** One remote free in flight to its owner. */
    struct RemoteMsg
    {
        uint64_t base = 0; ///< extent base being returned
        uint32_t cls = 0;  ///< sizeclass index (owner-side freelist key)
        uint32_t from = 0; ///< freeing context
    };

    struct CtxState
    {
        /** [cls] -> LIFO of recycled block bases. */
        std::vector<std::vector<uint64_t>> cache;
        /** [shard*2 + unit] -> open chunked groups. */
        std::array<std::vector<OpenGroup>, kShardsPerCtx * 2> groups;
        /** [cls] -> open bump slab. */
        std::vector<OpenSlab> open;
        /** Frees of this context's blocks by others, in post order. */
        std::vector<RemoteMsg> remote;
    };

    Shape shapeFor(uint64_t size);
    uint64_t acquire(uint32_t ctx, uint32_t tid, const Shape& s);
    uint64_t carveFromGroup(uint32_t ctx, uint32_t tid, const Shape& s);
    uint64_t carveFromSlab(uint32_t ctx, const Shape& s);
    void pushLocal(uint32_t ctx, uint32_t cls, uint64_t base);
    Extent& mintExtent(uint64_t base, const Shape& s, uint32_t ctx,
                       uint64_t requested);
    Extent& carveExtent(uint64_t base, uint64_t reserved);

    using ExtentMap = std::map<uint64_t, Extent>;
    ExtentMap::iterator addExtent(ExtentMap::iterator hint,
                                  const Extent& rec);
    ExtentMap::iterator dropExtent(ExtentMap::iterator it);

    /**
     * Open-addressed (linear probing, backward-shift deletion) index
     * of extent records by exact base. Load factor stays at most 1/2.
     */
    class BaseIndex
    {
      public:
        Extent* find(uint64_t base) const;
        /** Index @p rec under rec->base, which must be absent. */
        void insert(Extent* rec);
        /** Remove @p base, which must be present. */
        void erase(uint64_t base);

      private:
        struct Slot
        {
            uint64_t base = 0;
            Extent* rec = nullptr; ///< nullptr = empty slot
        };

        /** Fibonacci hash: bases are aligned, so mix before masking. */
        size_t
        home(uint64_t base) const
        {
            return size_t((base * 0x9E3779B97F4A7C15ull) >> shift_);
        }
        void grow();

        std::vector<Slot> slots_;
        unsigned shift_ = 64;
        size_t size_ = 0;
    };

    Config config_;
    const KindTraits& traits_;
    /** Fig. 5 chunk rounding: the Packed kernel heap. */
    bool chunked_;
    StatRegistry* stats_;
    RangeAllocator range_;
    SizeClassRegistry classes_;
    /** Extent table: base -> record, ranges never overlapping. */
    ExtentMap extents_;
    /** The same records by exact base (see the file comment). */
    BaseIndex by_base_;
    std::vector<CtxState> ctx_;
    /** [cls] -> overflow freelist shared by all contexts. */
    std::vector<std::vector<uint64_t>> central_;

    uint64_t live_reserved_ = 0;
    uint64_t live_requested_ = 0;
    uint64_t peak_reserved_ = 0;
    uint64_t footprint_ = 0;
    uint64_t peak_footprint_ = 0;
    uint64_t cached_blocks_ = 0;
    size_t group_count_ = 0;
    size_t slab_count_ = 0;
    uint64_t next_id_ = 1;
    RemoteStats remote_stats_;
};

} // namespace lmi
