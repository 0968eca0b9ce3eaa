/**
 * @file
 * Unit tests for the allocator stack: global (cudaMalloc model), device
 * heap (Fig. 5 model), and the static layout engine.
 */

#include <gtest/gtest.h>

#include "alloc/device_heap.hpp"
#include "alloc/global_allocator.hpp"
#include "alloc/layout.hpp"
#include "common/bitutil.hpp"
#include "common/logging.hpp"

namespace lmi {
namespace {

GlobalAllocator::Config
lmiConfig()
{
    GlobalAllocator::Config cfg;
    cfg.policy = AllocPolicy::Pow2Aligned;
    cfg.encode_extent = true;
    return cfg;
}

TEST(GlobalAllocator, PackedReservesAlignedRequest)
{
    GlobalAllocator a; // packed
    const uint64_t p = a.alloc(1000);
    ASSERT_NE(p, 0u);
    EXPECT_EQ(p % 256, 0u); // cudaMalloc's 256 B alignment
    const AllocBlock* b = a.findLive(p);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->requested, 1000u);
    EXPECT_EQ(b->reserved, 1024u); // rounded to 256 B granule
}

TEST(GlobalAllocator, Pow2ReturnsEncodedSizeAlignedPointer)
{
    GlobalAllocator a(lmiConfig());
    const uint64_t p = a.alloc(5000); // -> 8192
    ASSERT_NE(p, 0u);
    EXPECT_TRUE(PointerCodec::isValid(p));
    const PointerCodec codec;
    EXPECT_EQ(codec.sizeOf(p), 8192u);
    EXPECT_EQ(PointerCodec::addressOf(p) % 8192, 0u);
}

TEST(GlobalAllocator, FragmentationAccounting)
{
    GlobalAllocator packed;
    GlobalAllocator aligned(lmiConfig());
    // The Fig. 4 pathology: 2^n + header-epsilon requests double under
    // pow2 alignment.
    const uint64_t req = 1024 * 1024 + 64;
    packed.alloc(req);
    aligned.alloc(req);
    EXPECT_EQ(packed.liveReservedBytes(), alignUp(req, 256));
    EXPECT_EQ(aligned.liveReservedBytes(), 2 * 1024 * 1024u);
}

TEST(GlobalAllocator, PeakTracksHighWaterMark)
{
    GlobalAllocator a;
    const uint64_t p1 = a.alloc(4096);
    const uint64_t p2 = a.alloc(4096);
    EXPECT_EQ(a.peakReservedBytes(), 8192u);
    ASSERT_FALSE(a.free(p1).has_value());
    ASSERT_FALSE(a.free(p2).has_value());
    EXPECT_EQ(a.liveReservedBytes(), 0u);
    EXPECT_EQ(a.peakReservedBytes(), 8192u);
}

TEST(GlobalAllocator, SizeclassReuseAndEpochStamping)
{
    GlobalAllocator a;
    const uint64_t p1 = a.alloc(4096);
    const uint64_t p2 = a.alloc(4096);
    const uint64_t p3 = a.alloc(4096);
    ASSERT_FALSE(a.free(p2).has_value());
    // Same-size reallocation pops the freed block off the sizeclass
    // cache (LIFO), re-minting the extent with a bumped epoch.
    const uint64_t p4 = a.alloc(4096);
    EXPECT_EQ(p4, p2);
    const MessageHeap::Extent* e = a.extentAt(p4);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->epoch, 1u);
    EXPECT_TRUE(e->live);
    ASSERT_FALSE(a.free(p1).has_value());
    ASSERT_FALSE(a.free(p3).has_value());
    ASSERT_FALSE(a.free(p4).has_value());
    // Huge blocks bypass the sizeclass layer and coalesce in the range
    // allocator: allocate, free, and the same span is reusable.
    const uint64_t h1 = a.alloc(1024 * 1024);
    ASSERT_NE(h1, 0u);
    ASSERT_FALSE(a.free(h1).has_value());
    const uint64_t h2 = a.alloc(1024 * 1024);
    EXPECT_EQ(h2, h1);
}

TEST(GlobalAllocator, DoubleFreeAndInvalidFree)
{
    GlobalAllocator a;
    const uint64_t p = a.alloc(512);
    ASSERT_FALSE(a.free(p).has_value());
    const MaybeFault dbl = a.free(p);
    ASSERT_TRUE(dbl.has_value());
    EXPECT_EQ(dbl->kind, FaultKind::DoubleFree);

    const MaybeFault inv = a.free(0xDEAD000);
    ASSERT_TRUE(inv.has_value());
    EXPECT_EQ(inv->kind, FaultKind::InvalidFree);
}

TEST(GlobalAllocator, FreeAcceptsEncodedInteriorBase)
{
    GlobalAllocator a(lmiConfig());
    const uint64_t p = a.alloc(1024);
    ASSERT_FALSE(a.free(p).has_value());
    EXPECT_EQ(a.liveReservedBytes(), 0u);
}

TEST(GlobalAllocator, FindLiveLocatesInteriorAddresses)
{
    GlobalAllocator a;
    const uint64_t p = a.alloc(4096);
    EXPECT_NE(a.findLive(p + 100), nullptr);
    EXPECT_EQ(a.findLive(p + 4096), nullptr);
}

TEST(GlobalAllocator, ExhaustionReturnsNull)
{
    GlobalAllocator::Config cfg;
    cfg.region_base = 0x1000000;
    cfg.region_size = 4096;
    GlobalAllocator a(cfg);
    EXPECT_NE(a.alloc(4096), 0u);
    EXPECT_EQ(a.alloc(1), 0u);
}

TEST(DeviceHeap, ChunkRoundingMatchesFig5)
{
    DeviceHeapAllocator heap;
    // Small request -> 80 B chunk multiples.
    const uint64_t p = heap.malloc(0, 0, 100);
    ASSERT_NE(p, 0u);
    EXPECT_EQ(heap.liveReservedBytes(), 160u); // 2 x 80 B
    // Large request -> 2208 B chunk multiples.
    const uint64_t q = heap.malloc(0, 0, 3000);
    ASSERT_NE(q, 0u);
    EXPECT_EQ(heap.liveReservedBytes(), 160u + 2 * 2208u);
}

TEST(DeviceHeap, BaselineFragmentationUpToFiftyPct)
{
    DeviceHeapAllocator heap;
    // 81 bytes occupies two 80 B chunks: ~49% internal fragmentation,
    // the paper's §IV-E observation.
    const uint64_t p = heap.malloc(0, 0, 81);
    ASSERT_NE(p, 0u);
    const double frag =
        1.0 - double(heap.liveRequestedBytes()) / heap.liveReservedBytes();
    EXPECT_NEAR(frag, 0.49, 0.02);
}

TEST(DeviceHeap, ThreadsInDifferentWarpsUseDifferentGroups)
{
    DeviceHeapAllocator heap;
    const uint64_t p0 = heap.malloc(0, 0, 64);   // warp 0
    const uint64_t p1 = heap.malloc(0, 32, 64);  // warp 1
    const uint64_t p2 = heap.malloc(0, 1, 64);   // warp 0 again
    ASSERT_NE(p0, 0u);
    ASSERT_NE(p1, 0u);
    EXPECT_EQ(heap.groupCount(), 2u);
    // Warp 0's two buffers are adjacent chunks of one group.
    EXPECT_EQ(p2, p0 + 80);
}

TEST(DeviceHeap, Pow2PolicyEncodesExtent)
{
    DeviceHeapAllocator::Config cfg;
    cfg.policy = AllocPolicy::Pow2Aligned;
    cfg.encode_extent = true;
    DeviceHeapAllocator heap(cfg);
    const uint64_t p = heap.malloc(0, 3, 300);
    ASSERT_NE(p, 0u);
    EXPECT_TRUE(PointerCodec::isValid(p));
    const PointerCodec codec;
    EXPECT_EQ(codec.sizeOf(p), 512u);
    EXPECT_EQ(PointerCodec::addressOf(p) % 512, 0u);
}

TEST(DeviceHeap, FreeFaults)
{
    DeviceHeapAllocator heap;
    const uint64_t p = heap.malloc(0, 0, 64);
    ASSERT_FALSE(heap.free(0, 0, p).has_value());
    const MaybeFault dbl = heap.free(0, 0, p);
    ASSERT_TRUE(dbl.has_value());
    EXPECT_EQ(dbl->kind, FaultKind::DoubleFree);
    const MaybeFault inv = heap.free(0, 0, kHeapBase + 0x100000);
    ASSERT_TRUE(inv.has_value());
    EXPECT_EQ(inv->kind, FaultKind::InvalidFree);
}

TEST(DeviceHeap, ChunkReuseAfterFree)
{
    DeviceHeapAllocator heap;
    const uint64_t p = heap.malloc(0, 0, 64);
    ASSERT_FALSE(heap.free(0, 0, p).has_value());
    const uint64_t q = heap.malloc(0, 0, 64);
    EXPECT_EQ(q, p); // delayed-UAF substrate: memory is reassigned
}

TEST(DeviceHeap, GroupAccountingAcrossFreeRealloc)
{
    // Free-then-realloc of the same extent must reuse the open buffer
    // group (no second group, no footprint growth) and re-mint the
    // extent record in place.
    DeviceHeapAllocator heap;
    const uint64_t p = heap.malloc(0, 0, 64);
    ASSERT_NE(p, 0u);
    const uint64_t footprint = heap.core().footprintBytes();
    ASSERT_FALSE(heap.free(0, 0, p).has_value());
    const uint64_t q = heap.malloc(0, 0, 64);
    EXPECT_EQ(q, p);
    EXPECT_EQ(heap.groupCount(), 1u);
    EXPECT_EQ(heap.core().footprintBytes(), footprint);
    EXPECT_EQ(heap.liveReservedBytes(), 80u);
    const MessageHeap::Extent* e = heap.extentAt(q);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->epoch, 1u);
    EXPECT_TRUE(e->live);
}

TEST(DeviceHeap, FindLive)
{
    DeviceHeapAllocator heap;
    const uint64_t p = heap.malloc(0, 0, 100);
    const auto hit = heap.findLive(p + 50);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->base, p);
    EXPECT_FALSE(heap.findLive(p + 4096).has_value());
}

TEST(DeviceHeap, OversizedRequestReservesWholeLargeChunks)
{
    // More than one group's worth of 2208-byte chunks: a dedicated
    // block of whole chunks. 2208 is not a power of two, so a mask-based
    // round-up would reserve 300096 bytes here, less than requested.
    DeviceHeapAllocator heap;
    const uint64_t size = 300100;
    const uint64_t p = heap.malloc(0, 0, size);
    const uint64_t q = heap.malloc(0, 0, size);
    ASSERT_NE(p, 0u);
    ASSERT_NE(q, 0u);
    const MessageHeap::Extent* e = heap.extentAt(p);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->reserved, 136u * 2208); // ceil(300100 / 2208) chunks
    EXPECT_GE(q, p + size); // the next block starts past this one
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
