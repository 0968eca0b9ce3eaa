/**
 * @file
 * Unit tests for the pointer-liveness tracker (paper §XII-C, Algorithm 1).
 */

#include <gtest/gtest.h>

#include "core/liveness.hpp"

namespace lmi {
namespace {

TEST(Liveness, TracksMallocAndFree)
{
    LivenessTracker t;
    const PointerCodec c;
    const uint64_t p = c.encode(0x10000, 256);
    t.onMalloc(p);
    EXPECT_TRUE(t.isLive(p));
    EXPECT_EQ(t.membershipEntries(), 1u);
    EXPECT_FALSE(t.onFree(p).has_value());
    EXPECT_FALSE(t.isLive(p));
    EXPECT_EQ(t.membershipEntries(), 0u);
}

TEST(Liveness, CopiedPointerUafIsCaught)
{
    // The scenario of Fig. 11: C = A + 1 survives free(A) with a valid
    // extent; the membership check still reports it dead.
    LivenessTracker t;
    const PointerCodec c;
    const uint64_t a = c.encode(0x10000, 256);
    t.onMalloc(a);
    const uint64_t copy = a + 4; // same extent, same UM bits
    ASSERT_FALSE(t.onFree(a).has_value());
    EXPECT_TRUE(PointerCodec::isValid(copy)); // base LMI would miss this
    EXPECT_FALSE(t.isLive(copy));             // the tracker does not
}

TEST(Liveness, DoubleFreeDetected)
{
    LivenessTracker t;
    const PointerCodec c;
    const uint64_t p = c.encode(0x20000, 512);
    t.onMalloc(p);
    EXPECT_FALSE(t.onFree(p).has_value());
    const MaybeFault f = t.onFree(p);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->kind, FaultKind::DoubleFree);
}

TEST(Liveness, InvalidFreeDetected)
{
    LivenessTracker t;
    const PointerCodec c;
    const uint64_t never_allocated = c.encode(0x30000, 256);
    const MaybeFault f = t.onFree(never_allocated);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->kind, FaultKind::InvalidFree);
}

TEST(Liveness, FreeOfZeroExtentPointerClassified)
{
    LivenessTracker t;
    const PointerCodec c;
    const uint64_t p = c.encode(0x40000, 256);
    t.onMalloc(p);
    EXPECT_FALSE(t.onFree(p).has_value());
    // A pointer whose extent was already cleared (e.g. freed through the
    // compiler-nullified alias) shows up as a double free.
    const uint64_t stale = PointerCodec::invalidate(p);
    const MaybeFault f = t.onFree(stale);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->kind, FaultKind::DoubleFree);
}

TEST(Liveness, ReallocationRevivesBase)
{
    LivenessTracker t;
    const PointerCodec c;
    const uint64_t p = c.encode(0x50000, 256);
    t.onMalloc(p);
    ASSERT_FALSE(t.onFree(p).has_value());
    // The allocator hands the same base out again.
    t.onMalloc(p);
    EXPECT_TRUE(t.isLive(p));
    EXPECT_FALSE(t.onFree(p).has_value()); // not a double free anymore
}

TEST(Liveness, PageInvalidationForLargeBuffers)
{
    LivenessTracker::Config cfg;
    cfg.page_invalidate_opt = true;
    cfg.page_size = 64 * 1024;
    LivenessTracker t(cfg);
    const PointerCodec c;

    // 48 KB rounds to 64 KB: above pageSize/2, so no table entry — the
    // paper's example of a dedicated-page allocation.
    const uint64_t big = c.encode(uint64_t(64) * 1024 * 16, 48 * 1024);
    t.onMalloc(big);
    EXPECT_EQ(t.membershipEntries(), 0u);
    EXPECT_TRUE(t.isLive(big));

    ASSERT_FALSE(t.onFree(big).has_value());
    EXPECT_FALSE(t.isLive(big));
    EXPECT_GT(t.invalidatedPages(), 0u);

    // Interior copied pointer is also dead via the page map.
    EXPECT_FALSE(t.isLive(big + 4096));
}

TEST(Liveness, SmallBuffersStillUseTableUnderPageOpt)
{
    LivenessTracker::Config cfg;
    cfg.page_invalidate_opt = true;
    LivenessTracker t(cfg);
    const PointerCodec c;
    const uint64_t small = c.encode(0x60000, 256);
    t.onMalloc(small);
    EXPECT_EQ(t.membershipEntries(), 1u);
    EXPECT_TRUE(t.isLive(small));
    ASSERT_FALSE(t.onFree(small).has_value());
    EXPECT_FALSE(t.isLive(small));
}

TEST(Liveness, PageRemappedOnReallocation)
{
    LivenessTracker::Config cfg;
    cfg.page_invalidate_opt = true;
    LivenessTracker t(cfg);
    const PointerCodec c;
    const uint64_t base = uint64_t(64) * 1024 * 32;
    const uint64_t big = c.encode(base, 128 * 1024);
    t.onMalloc(big);
    ASSERT_FALSE(t.onFree(big).has_value());
    EXPECT_FALSE(t.isLive(big));
    t.onMalloc(big); // allocator reuses the block
    EXPECT_TRUE(t.isLive(big));
}

TEST(Liveness, PeakEntriesGauge)
{
    StatRegistry stats;
    LivenessTracker t({}, &stats);
    const PointerCodec c;
    const uint64_t a = c.encode(0x10000, 256);
    const uint64_t b = c.encode(0x10100, 256);
    t.onMalloc(a);
    t.onMalloc(b);
    ASSERT_FALSE(t.onFree(a).has_value());
    EXPECT_DOUBLE_EQ(stats.gauge("liveness.peak_entries"), 2.0);
}

} // namespace
} // namespace lmi
