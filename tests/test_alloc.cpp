/**
 * @file
 * Unit tests for the allocator stack: the global (cudaMalloc) and
 * device (Fig. 5 kernel malloc) kinds of MessageHeap, and the static
 * layout engine.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "alloc/layout.hpp"
#include "alloc/msg_heap.hpp"
#include "arch/mem_map.hpp"
#include "common/bitutil.hpp"
#include "common/logging.hpp"

namespace lmi {
namespace {

/** The cudaMalloc heap under the LMI policy. */
const MessageHeap::Config kLmiGlobal{.policy = AllocPolicy::Pow2Aligned};
/** The kernel heap, baseline policy. */
const MessageHeap::Config kDeviceHeap{.kind = HeapKind::Device};

TEST(GlobalAllocator, PackedReservesAlignedRequest)
{
    MessageHeap a({}); // packed
    const uint64_t p = a.alloc(0, 0, 1000);
    ASSERT_NE(p, 0u);
    EXPECT_EQ(p % 256, 0u); // cudaMalloc's 256 B alignment
    const AllocBlock* b = a.findLive(p);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->requested, 1000u);
    EXPECT_EQ(b->reserved, 1024u); // rounded to 256 B granule
}

TEST(GlobalAllocator, Pow2ReturnsEncodedSizeAlignedPointer)
{
    MessageHeap a(kLmiGlobal);
    const uint64_t p = a.alloc(0, 0, 5000); // -> 8192
    ASSERT_NE(p, 0u);
    EXPECT_TRUE(PointerCodec::isValid(p));
    const PointerCodec codec;
    EXPECT_EQ(codec.sizeOf(p), 8192u);
    EXPECT_EQ(PointerCodec::addressOf(p) % 8192, 0u);
}

TEST(GlobalAllocator, FragmentationAccounting)
{
    MessageHeap packed({});
    MessageHeap aligned(kLmiGlobal);
    // The Fig. 4 pathology: 2^n + header-epsilon requests double under
    // pow2 alignment.
    const uint64_t req = 1024 * 1024 + 64;
    packed.alloc(0, 0, req);
    aligned.alloc(0, 0, req);
    EXPECT_EQ(packed.liveReservedBytes(), alignUp(req, 256));
    EXPECT_EQ(aligned.liveReservedBytes(), 2 * 1024 * 1024u);
}

TEST(GlobalAllocator, PeakTracksHighWaterMark)
{
    MessageHeap a({});
    const uint64_t p1 = a.alloc(0, 0, 4096);
    const uint64_t p2 = a.alloc(0, 0, 4096);
    EXPECT_EQ(a.peakReservedBytes(), 8192u);
    ASSERT_FALSE(a.free(0, p1).has_value());
    ASSERT_FALSE(a.free(0, p2).has_value());
    EXPECT_EQ(a.liveReservedBytes(), 0u);
    EXPECT_EQ(a.peakReservedBytes(), 8192u);
}

TEST(GlobalAllocator, SizeclassReuseAndEpochStamping)
{
    MessageHeap a({});
    const uint64_t p1 = a.alloc(0, 0, 4096);
    const uint64_t p2 = a.alloc(0, 0, 4096);
    const uint64_t p3 = a.alloc(0, 0, 4096);
    ASSERT_FALSE(a.free(0, p2).has_value());
    // Same-size reallocation pops the freed block off the sizeclass
    // cache (LIFO), re-minting the extent with a bumped epoch.
    const uint64_t p4 = a.alloc(0, 0, 4096);
    EXPECT_EQ(p4, p2);
    const MessageHeap::Extent* e = a.extentAt(p4);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->epoch, 1u);
    EXPECT_TRUE(e->live);
    ASSERT_FALSE(a.free(0, p1).has_value());
    ASSERT_FALSE(a.free(0, p3).has_value());
    ASSERT_FALSE(a.free(0, p4).has_value());
    // Huge blocks bypass the sizeclass layer and coalesce in the range
    // allocator: allocate, free, and the same span is reusable.
    const uint64_t h1 = a.alloc(0, 0, 1024 * 1024);
    ASSERT_NE(h1, 0u);
    ASSERT_FALSE(a.free(0, h1).has_value());
    const uint64_t h2 = a.alloc(0, 0, 1024 * 1024);
    EXPECT_EQ(h2, h1);
}

TEST(GlobalAllocator, DoubleFreeAndInvalidFree)
{
    MessageHeap a({});
    const uint64_t p = a.alloc(0, 0, 512);
    ASSERT_FALSE(a.free(0, p).has_value());
    const MaybeFault dbl = a.free(0, p);
    ASSERT_TRUE(dbl.has_value());
    EXPECT_EQ(dbl->kind, FaultKind::DoubleFree);

    const MaybeFault inv = a.free(0, 0xDEAD000);
    ASSERT_TRUE(inv.has_value());
    EXPECT_EQ(inv->kind, FaultKind::InvalidFree);
}

TEST(GlobalAllocator, FreeAcceptsEncodedInteriorBase)
{
    MessageHeap a(kLmiGlobal);
    const uint64_t p = a.alloc(0, 0, 1024);
    ASSERT_FALSE(a.free(0, p).has_value());
    EXPECT_EQ(a.liveReservedBytes(), 0u);
}

TEST(GlobalAllocator, FindLiveLocatesInteriorAddresses)
{
    MessageHeap a({});
    const uint64_t p = a.alloc(0, 0, 4096);
    EXPECT_NE(a.findLive(p + 100), nullptr);
    EXPECT_EQ(a.findLive(p + 4096), nullptr);
}

TEST(GlobalAllocator, ExhaustionReturnsNull)
{
    MessageHeap a({.region_base = 0x1000000, .region_size = 4096});
    EXPECT_NE(a.alloc(0, 0, 4096), 0u);
    EXPECT_EQ(a.alloc(0, 0, 1), 0u);
}

TEST(DeviceHeap, ChunkRoundingMatchesFig5)
{
    MessageHeap heap(kDeviceHeap);
    // Small request -> 80 B chunk multiples.
    const uint64_t p = heap.alloc(0, 0, 100);
    ASSERT_NE(p, 0u);
    EXPECT_EQ(heap.liveReservedBytes(), 160u); // 2 x 80 B
    // Large request -> 2208 B chunk multiples.
    const uint64_t q = heap.alloc(0, 0, 3000);
    ASSERT_NE(q, 0u);
    EXPECT_EQ(heap.liveReservedBytes(), 160u + 2 * 2208u);
}

TEST(DeviceHeap, BaselineFragmentationUpToFiftyPct)
{
    MessageHeap heap(kDeviceHeap);
    // 81 bytes occupies two 80 B chunks: ~49% internal fragmentation,
    // the paper's §IV-E observation.
    const uint64_t p = heap.alloc(0, 0, 81);
    ASSERT_NE(p, 0u);
    const double frag =
        1.0 - double(heap.liveRequestedBytes()) / heap.liveReservedBytes();
    EXPECT_NEAR(frag, 0.49, 0.02);
}

TEST(DeviceHeap, ThreadsInDifferentWarpsUseDifferentGroups)
{
    MessageHeap heap(kDeviceHeap);
    const uint64_t p0 = heap.alloc(0, 0, 64);   // warp 0
    const uint64_t p1 = heap.alloc(0, 32, 64);  // warp 1
    const uint64_t p2 = heap.alloc(0, 1, 64);   // warp 0 again
    ASSERT_NE(p0, 0u);
    ASSERT_NE(p1, 0u);
    EXPECT_EQ(heap.groupCount(), 2u);
    // Warp 0's two buffers are adjacent chunks of one group.
    EXPECT_EQ(p2, p0 + 80);
}

TEST(DeviceHeap, Pow2PolicyEncodesExtent)
{
    MessageHeap heap({.kind = HeapKind::Device,
                      .policy = AllocPolicy::Pow2Aligned});
    const uint64_t p = heap.alloc(0, 3, 300);
    ASSERT_NE(p, 0u);
    EXPECT_TRUE(PointerCodec::isValid(p));
    const PointerCodec codec;
    EXPECT_EQ(codec.sizeOf(p), 512u);
    EXPECT_EQ(PointerCodec::addressOf(p) % 512, 0u);
}

TEST(DeviceHeap, FreeFaults)
{
    MessageHeap heap(kDeviceHeap);
    const uint64_t p = heap.alloc(0, 0, 64);
    ASSERT_FALSE(heap.free(0, p).has_value());
    const MaybeFault dbl = heap.free(0, p);
    ASSERT_TRUE(dbl.has_value());
    EXPECT_EQ(dbl->kind, FaultKind::DoubleFree);
    const MaybeFault inv = heap.free(0, kHeapBase + 0x100000);
    ASSERT_TRUE(inv.has_value());
    EXPECT_EQ(inv->kind, FaultKind::InvalidFree);
}

TEST(DeviceHeap, ChunkReuseAfterFree)
{
    MessageHeap heap(kDeviceHeap);
    const uint64_t p = heap.alloc(0, 0, 64);
    ASSERT_FALSE(heap.free(0, p).has_value());
    const uint64_t q = heap.alloc(0, 0, 64);
    EXPECT_EQ(q, p); // delayed-UAF substrate: memory is reassigned
}

TEST(DeviceHeap, GroupAccountingAcrossFreeRealloc)
{
    // Free-then-realloc of the same extent must reuse the open buffer
    // group (no second group, no footprint growth) and re-mint the
    // extent record in place.
    MessageHeap heap(kDeviceHeap);
    const uint64_t p = heap.alloc(0, 0, 64);
    ASSERT_NE(p, 0u);
    const uint64_t footprint = heap.footprintBytes();
    ASSERT_FALSE(heap.free(0, p).has_value());
    const uint64_t q = heap.alloc(0, 0, 64);
    EXPECT_EQ(q, p);
    EXPECT_EQ(heap.groupCount(), 1u);
    EXPECT_EQ(heap.footprintBytes(), footprint);
    EXPECT_EQ(heap.liveReservedBytes(), 80u);
    const MessageHeap::Extent* e = heap.extentAt(q);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->epoch, 1u);
    EXPECT_TRUE(e->live);
}

TEST(DeviceHeap, FindLive)
{
    MessageHeap heap(kDeviceHeap);
    const uint64_t p = heap.alloc(0, 0, 100);
    const AllocBlock* hit = heap.findLive(p + 50);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->base, p);
    EXPECT_EQ(heap.findLive(p + 4096), nullptr);
}

TEST(DeviceHeap, OversizedRequestReservesWholeLargeChunks)
{
    // More than one group's worth of 2208-byte chunks: a dedicated
    // block of whole chunks. 2208 is not a power of two, so a mask-based
    // round-up would reserve 300096 bytes here, less than requested.
    MessageHeap heap(kDeviceHeap);
    const uint64_t size = 300100;
    const uint64_t p = heap.alloc(0, 0, size);
    const uint64_t q = heap.alloc(0, 0, size);
    ASSERT_NE(p, 0u);
    ASSERT_NE(q, 0u);
    const MessageHeap::Extent* e = heap.extentAt(p);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->reserved, 136u * 2208); // ceil(300100 / 2208) chunks
    EXPECT_GE(q, p + size); // the next block starts past this one
}

// --- What differs between the cudaMalloc heap and the kernel heap --------
//
// The two heaps share one allocator; these tests pin every behaviour
// that depends on which of the two a heap models: the fault strings,
// the stat names and when each is counted, the packed alignment, and
// the Fig. 5 chunk rounding.

/** Sorted names of every counter in @p stats. */
std::vector<std::string>
counterNames(const StatRegistry& stats)
{
    std::vector<std::string> names;
    for (const auto& [name, value] : stats.counters())
        names.push_back(name);
    return names;
}

TEST(HeapKind, GlobalFaultStringsStatsAndAlignment)
{
    // 16 bytes past a 256-byte boundary: the first block must skip to
    // the next 256-byte boundary (cudaMalloc's alignment).
    StatRegistry stats;
    MessageHeap::Config cfg{.region_base = 0x10000010, .region_size = 8192};
    MessageHeap heap(cfg, &stats);

    const uint64_t p = heap.alloc(0, 0, 1);
    EXPECT_EQ(p, 0x10000100u);
    EXPECT_EQ(heap.liveReservedBytes(), 256u);
    // Exhaustion: cudaMalloc counts successful allocations only.
    EXPECT_EQ(heap.alloc(0, 0, 8192), 0u);
    EXPECT_EQ(stats.counter("alloc.global.allocs"), 1u);
    EXPECT_EQ(stats.counter("alloc.global.reserved_bytes"), 256u);
    EXPECT_EQ(stats.counter("alloc.global.requested_bytes"), 1u);

    ASSERT_FALSE(heap.free(0, p).has_value());
    EXPECT_EQ(stats.counter("alloc.global.frees"), 1u);
    const MaybeFault dbl = heap.free(0, p);
    ASSERT_TRUE(dbl.has_value());
    EXPECT_EQ(dbl->kind, FaultKind::DoubleFree);
    EXPECT_EQ(dbl->detail, "cudaFree of already-freed pointer");
    const MaybeFault inv = heap.free(0, p + 16);
    ASSERT_TRUE(inv.has_value());
    EXPECT_EQ(inv->kind, FaultKind::InvalidFree);
    EXPECT_EQ(inv->detail, "cudaFree of pointer not returned by cudaMalloc");
    EXPECT_EQ(counterNames(stats),
              (std::vector<std::string>{
                  "alloc.global.allocs", "alloc.global.frees",
                  "alloc.global.requested_bytes",
                  "alloc.global.reserved_bytes"}));

    // A quarantined free counts its bytes, not a free.
    StatRegistry qstats;
    cfg.quarantine_frees = true;
    MessageHeap quarantine(cfg, &qstats);
    ASSERT_FALSE(quarantine.free(0, quarantine.alloc(0, 0, 1)).has_value());
    EXPECT_EQ(qstats.counter("alloc.global.quarantined_bytes"), 256u);
    EXPECT_EQ(counterNames(qstats),
              (std::vector<std::string>{
                  "alloc.global.allocs", "alloc.global.quarantined_bytes",
                  "alloc.global.requested_bytes",
                  "alloc.global.reserved_bytes"}));
}

TEST(HeapKind, DeviceFaultStringsStatsAndAlignment)
{
    // 16 bytes past a 256-byte boundary: buffer groups place at 16-byte
    // alignment, so the first group starts at the region base.
    StatRegistry stats;
    MessageHeap::Config cfg{.kind = HeapKind::Device,
                            .region_base = kHeapBase + 16,
                            .region_size = 16384}; // room for one group
    MessageHeap heap(cfg, &stats);

    const uint64_t p = heap.alloc(0, 0, 100);
    EXPECT_EQ(p, kHeapBase + 16 + kChunkGeometry.group_header);
    // Another warp shard needs a second group, which does not fit:
    // the kernel heap counts malloc attempts, failed ones included.
    EXPECT_EQ(heap.alloc(0, 32, 100), 0u);
    EXPECT_EQ(stats.counter("alloc.heap.mallocs"), 2u);
    EXPECT_EQ(stats.counter("alloc.heap.groups"), 1u);

    ASSERT_FALSE(heap.free(0, p).has_value());
    EXPECT_EQ(stats.counter("alloc.heap.frees"), 1u);
    const MaybeFault dbl = heap.free(0, p);
    ASSERT_TRUE(dbl.has_value());
    EXPECT_EQ(dbl->kind, FaultKind::DoubleFree);
    EXPECT_EQ(dbl->detail, "device free of already-freed pointer");
    const MaybeFault inv = heap.free(0, p + 16);
    ASSERT_TRUE(inv.has_value());
    EXPECT_EQ(inv->kind, FaultKind::InvalidFree);
    EXPECT_EQ(inv->detail, "device free of pointer not returned by malloc");
    EXPECT_EQ(counterNames(stats),
              (std::vector<std::string>{"alloc.heap.frees",
                                        "alloc.heap.groups",
                                        "alloc.heap.mallocs"}));

    // A quarantined free still counts as a free; no byte counters.
    StatRegistry qstats;
    cfg.quarantine_frees = true;
    MessageHeap quarantine(cfg, &qstats);
    ASSERT_FALSE(quarantine.free(0, quarantine.alloc(0, 0, 100)).has_value());
    EXPECT_EQ(qstats.counter("alloc.heap.frees"), 1u);
    EXPECT_EQ(counterNames(qstats),
              (std::vector<std::string>{"alloc.heap.frees",
                                        "alloc.heap.groups",
                                        "alloc.heap.mallocs"}));
}

TEST(HeapKind, ChunkRoundingOnlyOnPackedDeviceHeap)
{
    const uint64_t pow2 = PointerCodec{}.alignedSize(100);
    for (AllocPolicy policy : {AllocPolicy::Packed, AllocPolicy::Pow2Aligned}) {
        const bool is_pow2 = policy == AllocPolicy::Pow2Aligned;
        SCOPED_TRACE(is_pow2 ? "Pow2Aligned" : "Packed");

        MessageHeap device({.kind = HeapKind::Device, .policy = policy});
        const uint64_t d = device.alloc(0, 0, 100);
        EXPECT_EQ(device.liveReservedBytes(), is_pow2 ? pow2 : 160u);
        EXPECT_EQ(device.groupCount(), is_pow2 ? 0u : 1u);
        EXPECT_EQ(device.slabCount(), is_pow2 ? 1u : 0u);
        EXPECT_EQ(PointerCodec::isValid(d), is_pow2);

        MessageHeap global({.kind = HeapKind::Global, .policy = policy});
        const uint64_t g = global.alloc(0, 0, 100);
        EXPECT_EQ(global.liveReservedBytes(), is_pow2 ? pow2 : 256u);
        EXPECT_EQ(global.groupCount(), 0u);
        EXPECT_EQ(global.slabCount(), 1u);
        EXPECT_EQ(PointerCodec::isValid(g), is_pow2);
    }
}

TEST(HeapKind, EachKindDefaultsToItsRegion)
{
    // Global: all of global memory. Device: the heap at its top.
    MessageHeap global({});
    EXPECT_EQ(global.alloc(0, 0, kGlobalSize - kHeapSize + 1), kGlobalBase);
    MessageHeap device({.kind = HeapKind::Device});
    const uint64_t d = device.alloc(0, 0, 100);
    EXPECT_GE(d, kHeapBase);
    EXPECT_LT(d, kHeapBase + kHeapSize);
    EXPECT_EQ(device.alloc(0, 0, kHeapSize), 0u);
}

TEST(Layout, PackedIsTight)
{
    const RegionLayout l = layoutBuffers(
        {{"a", 100}, {"b", 24}, {"c", 8}}, AllocPolicy::Packed);
    EXPECT_EQ(l.buffers[0].offset, 0u);
    EXPECT_EQ(l.buffers[1].offset, 112u); // 100 -> 112 (16B align)
    EXPECT_EQ(l.buffers[2].offset, 144u);
    EXPECT_EQ(l.total_bytes, 160u);
}

TEST(Layout, Pow2AlignsEachBuffer)
{
    const RegionLayout l = layoutBuffers(
        {{"a", 100}, {"b", 1000}}, AllocPolicy::Pow2Aligned);
    // b (1024) placed first at 0, a (256) after it.
    EXPECT_EQ(l.find("b").offset, 0u);
    EXPECT_EQ(l.find("b").reserved, 1024u);
    EXPECT_EQ(l.find("a").offset, 1024u);
    EXPECT_EQ(l.find("a").reserved, 256u);
    EXPECT_EQ(l.required_alignment, 1024u);
    EXPECT_EQ(l.total_bytes % l.required_alignment, 0u);
}

TEST(Layout, Pow2OffsetsAreSizeAligned)
{
    const RegionLayout l = layoutBuffers(
        {{"a", 300}, {"b", 600}, {"c", 5000}, {"d", 70}},
        AllocPolicy::Pow2Aligned);
    for (const auto& b : l.buffers)
        EXPECT_EQ(b.offset % b.reserved, 0u) << b.name;
}

TEST(Layout, FindUnknownBufferIsFatal)
{
    const RegionLayout l = layoutBuffers({{"a", 8}}, AllocPolicy::Packed);
    EXPECT_THROW(l.find("zzz"), FatalError);
}

} // namespace
} // namespace lmi
