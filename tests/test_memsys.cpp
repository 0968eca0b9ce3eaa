/**
 * @file
 * Direct unit tests for the memory-system models: SparseMemory,
 * WindowedMemory and LineSet (each against a reference), CacheModel
 * (set-associative LRU), and DramModel (bandwidth queueing).
 */

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "sim/cache.hpp"
#include "sim/memory.hpp"

namespace lmi {
namespace {

TEST(SparseMemory, ZeroFilledOnFirstTouch)
{
    SparseMemory mem;
    EXPECT_EQ(mem.read(0x123456, 8), 0u);
    EXPECT_EQ(mem.pageCount(), 0u); // reads do not materialize pages
}

TEST(SparseMemory, ReadWriteRoundTrip)
{
    SparseMemory mem;
    mem.write(0x1000, 0xDEADBEEFCAFEF00Dull, 8);
    EXPECT_EQ(mem.read(0x1000, 8), 0xDEADBEEFCAFEF00Dull);
    EXPECT_EQ(mem.read(0x1000, 4), 0xCAFEF00Du);
    EXPECT_EQ(mem.read(0x1004, 4), 0xDEADBEEFu);
    EXPECT_EQ(mem.pageCount(), 1u);
}

TEST(SparseMemory, CrossPageAccess)
{
    SparseMemory mem;
    const uint64_t addr = SparseMemory::kPageBytes - 3;
    mem.write(addr, 0x1122334455667788ull, 8);
    EXPECT_EQ(mem.read(addr, 8), 0x1122334455667788ull);
    EXPECT_EQ(mem.pageCount(), 2u);
}

TEST(SparseMemory, BulkTransfer)
{
    SparseMemory mem;
    std::vector<uint8_t> payload(10000);
    for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = uint8_t(i * 7);
    mem.writeBytes(123, payload.data(), payload.size());
    std::vector<uint8_t> back(payload.size());
    mem.readBytes(123, back.data(), back.size());
    EXPECT_EQ(back, payload);
}

TEST(SparseMemory, PartialWidthWritePreservesNeighbors)
{
    SparseMemory mem;
    mem.write(0x100, 0xAAAAAAAAAAAAAAAAull, 8);
    mem.write(0x102, 0x42, 1);
    EXPECT_EQ(mem.read(0x100, 8), 0xAAAAAAAAAA42AAAAull);
}

TEST(SparseMemory, ResetInvalidatesPageCache)
{
    // The one-entry last-page cache must not serve storage that
    // reset() released.
    SparseMemory mem;
    mem.write(0x2000, 0x1111, 2); // cache now points at this page
    EXPECT_EQ(mem.read(0x2000, 2), 0x1111u);
    mem.reset();
    EXPECT_EQ(mem.read(0x2000, 2), 0u);
    EXPECT_EQ(mem.pageCount(), 0u); // the read did not re-materialize
    mem.write(0x2000, 0x2222, 2);
    EXPECT_EQ(mem.read(0x2000, 2), 0x2222u);
}

TEST(SparseMemory, PageCacheTracksSwitches)
{
    // Alternating between pages must always read the right storage.
    SparseMemory mem;
    const uint64_t a = 0;
    const uint64_t b = 5 * SparseMemory::kPageBytes;
    mem.write(a, 0xAA, 1);
    mem.write(b, 0xBB, 1);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(mem.read(a, 1), 0xAAu);
        EXPECT_EQ(mem.read(b, 1), 0xBBu);
    }
    EXPECT_EQ(mem.pageCount(), 2u);
}

TEST(SparseMemory, TopOfAddressSpace)
{
    // Wild 64-bit addresses (reachable under the unprotected baseline)
    // must behave like any other page, including the very last one.
    SparseMemory mem;
    const uint64_t addr = ~uint64_t(0) - 7; // last 8 bytes of memory
    EXPECT_EQ(mem.read(addr, 8), 0u);
    mem.write(addr, 0x0123456789ABCDEFull, 8);
    EXPECT_EQ(mem.read(addr, 8), 0x0123456789ABCDEFull);
    EXPECT_EQ(mem.pageCount(), 1u);
}

/** Window placements: a stack frame just below a page-aligned top, a
 *  shared range from 0, a window across a page boundary, an empty
 *  window, and one ending at the top of the address space. */
struct WindowCase
{
    const char* name;
    uint64_t lo;
    uint64_t size;
};

/** Keeps the ctest names (which embed GetParam()) readable. */
void
PrintTo(const WindowCase& c, std::ostream* os)
{
    *os << c.name;
}

class WindowedMemoryDiff : public ::testing::TestWithParam<WindowCase>
{
};

TEST_P(WindowedMemoryDiff, MatchesSparseMemoryOnRandomOps)
{
    // Seeded reads and writes of width 1/2/4/8 inside the window,
    // across both edges and far outside it, with occasional reset();
    // every read must match a plain SparseMemory.
    const WindowCase wc = GetParam();
    std::vector<uint8_t> storage(wc.size, 0xA5); // garbage until reset()
    WindowedMemory mem;
    mem.bind(storage.data(), wc.lo, wc.size);
    mem.reset();
    SparseMemory ref;
    Rng rng(0x5eed + wc.lo + wc.size);
    const unsigned widths[] = {1, 2, 4, 8};
    const uint64_t hi = wc.lo + wc.size;
    for (int op = 0; op < 20000; ++op) {
        const unsigned n = widths[rng.below(4)];
        uint64_t addr;
        switch (rng.below(4)) {
          case 0: // inside
            addr = wc.lo + (wc.size ? rng.below(wc.size) : 0);
            break;
          case 1: // straddling or just past the low edge
            addr = wc.lo - 8 + rng.below(16);
            break;
          case 2: // straddling or just past the high edge
            addr = hi - 8 + rng.below(16);
            break;
          default: // anywhere within a few pages
            addr = wc.lo - 8192 + rng.below(16384 + wc.size);
            break;
        }
        if (rng.below(2000) == 0) {
            mem.reset();
            ref.reset();
        } else if (rng.below(2)) {
            const uint64_t v = rng.next();
            mem.write(addr, v, n);
            ref.write(addr, v, n);
        } else {
            ASSERT_EQ(mem.read(addr, n), ref.read(addr, n))
                << "op " << op << " addr 0x" << std::hex << addr
                << " width " << std::dec << n;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Windows, WindowedMemoryDiff,
    ::testing::Values(WindowCase{"Frame", 0x140000 - 192, 192},
                      WindowCase{"SharedFromZero", 0, 96},
                      WindowCase{"AcrossPage", SparseMemory::kPageBytes - 40,
                                 80},
                      WindowCase{"Empty", 0x2000, 0},
                      WindowCase{"TopOfAddressSpace", ~uint64_t(0) - 255,
                                 256}),
    [](const ::testing::TestParamInfo<WindowCase>& info) {
        return std::string(info.param.name);
    });

TEST(WindowedMemory, ResetZeroesWindowAndSpill)
{
    std::vector<uint8_t> storage(64, 0xFF);
    WindowedMemory mem;
    mem.bind(storage.data(), 0x1000, 64);
    mem.reset();
    EXPECT_EQ(mem.read(0x1000, 8), 0u);
    mem.write(0x103C, 0x1122334455667788ull, 8); // straddles the top
    mem.write(0x9000, 0xABCDull, 2);             // spill only
    EXPECT_EQ(mem.read(0x103C, 8), 0x1122334455667788ull);
    EXPECT_EQ(storage[63], 0x55u); // in-window bytes live in the storage
    mem.reset();
    EXPECT_EQ(mem.read(0x103C, 8), 0u);
    EXPECT_EQ(mem.read(0x9000, 2), 0u);
}

TEST(LineSet, MatchesUnorderedSetThroughGrowthAndClear)
{
    // Seeded inserts over a small key domain (so repeats hit), sets
    // from a few lines up to several thousand (so the table grows
    // repeatedly), with clears in between.
    LineSet set;
    std::unordered_set<uint64_t> ref;
    Rng rng(17);
    for (int round = 0; round < 200; ++round) {
        const uint64_t domain = 1 + rng.below(round % 10 == 9 ? 20000 : 300);
        const uint64_t base = rng.next();
        const int ops = int(rng.below(4000));
        for (int i = 0; i < ops; ++i) {
            const uint64_t key = base + rng.below(domain) * 128;
            ASSERT_EQ(set.insert(key), ref.insert(key).second)
                << "round " << round;
            ASSERT_EQ(set.size(), ref.size());
        }
        for (const uint64_t key : ref)
            ASSERT_FALSE(set.insert(key)) << "round " << round;
        ASSERT_EQ(set.size(), ref.size());
        set.clear();
        ref.clear();
        ASSERT_EQ(set.size(), 0u);
        // Cleared slots still hold old keys: they must not count.
        ASSERT_TRUE(set.insert(base));
        set.clear();
    }
}

TEST(CacheModel, HitAfterFill)
{
    CacheModel cache(1024, 2, 64);
    EXPECT_FALSE(cache.access(0x000)); // compulsory miss
    EXPECT_TRUE(cache.access(0x000));  // now resident
    EXPECT_TRUE(cache.access(0x03F));  // same line
    EXPECT_FALSE(cache.access(0x040)); // next line misses
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_DOUBLE_EQ(cache.hitRate(), 0.5);
}

TEST(CacheModel, LruEviction)
{
    // 2-way, 64 B lines, 2 sets (256 B total).
    CacheModel cache(256, 2, 64);
    // Three lines mapping to set 0: 0x000, 0x080, 0x100.
    EXPECT_FALSE(cache.access(0x000));
    EXPECT_FALSE(cache.access(0x080));
    EXPECT_TRUE(cache.access(0x000));  // refresh LRU
    EXPECT_FALSE(cache.access(0x100)); // evicts 0x080 (LRU)
    EXPECT_TRUE(cache.access(0x000));
    EXPECT_FALSE(cache.access(0x080)); // was evicted
}

TEST(CacheModel, LruEvictionOrderAcrossFullSet)
{
    // 4-way, one set (256 B): eviction order must track recency, not
    // fill order.
    CacheModel cache(256, 4, 64);
    EXPECT_FALSE(cache.access(0x000)); // A
    EXPECT_FALSE(cache.access(0x040)); // B
    EXPECT_FALSE(cache.access(0x080)); // C
    EXPECT_FALSE(cache.access(0x0C0)); // D — set now full
    EXPECT_TRUE(cache.access(0x000));  // refresh A
    EXPECT_TRUE(cache.access(0x080));  // refresh C
    EXPECT_FALSE(cache.access(0x100)); // E evicts B (least recent)
    EXPECT_TRUE(cache.access(0x0C0));  // D survived (and is refreshed)
    EXPECT_FALSE(cache.access(0x040)); // B gone; re-fill evicts A (LRU)
    EXPECT_TRUE(cache.access(0x080));  // C still resident
    EXPECT_FALSE(cache.access(0x000)); // A was the victim
}

TEST(CacheModel, SetIndexAliasing)
{
    // 2 KB, 2-way, 64 B lines => 16 sets. Lines 16 apart alias into
    // the same set; neighbors do not.
    CacheModel cache(2048, 2, 64);
    const uint64_t stride = 16 * 64;
    EXPECT_FALSE(cache.access(0));
    EXPECT_FALSE(cache.access(stride));
    EXPECT_FALSE(cache.access(2 * stride)); // evicts line 0 (2-way)
    EXPECT_FALSE(cache.access(0));          // conflict miss
    // A line in a different set is untouched by that thrashing.
    EXPECT_FALSE(cache.access(0x040)); // compulsory
    EXPECT_TRUE(cache.access(0x040));
}

TEST(CacheModel, NonPowerOfTwoSetCount)
{
    // 192 B direct-mapped with 64 B lines => 3 sets, indexed modulo 3.
    CacheModel cache(192, 1, 64);
    EXPECT_FALSE(cache.access(0));
    EXPECT_FALSE(cache.access(3 * 64)); // line 3 % 3 == set 0: evicts
    EXPECT_FALSE(cache.access(0));      // conflict miss
    EXPECT_FALSE(cache.access(64));     // line 1 -> set 1, independent
    EXPECT_TRUE(cache.access(64));
}

TEST(CacheModel, AccountingOnStridedSweeps)
{
    // Direct-mapped, 8 sets: a working set that fits is all-miss on
    // the first sweep and all-hit on the second; doubling the stride
    // footprint aliases every line and thrashes to 100% misses.
    CacheModel cache(512, 1, 64);
    for (int pass = 0; pass < 2; ++pass)
        for (uint64_t line = 0; line < 8; ++line)
            cache.access(line * 64);
    EXPECT_EQ(cache.misses(), 8u);
    EXPECT_EQ(cache.hits(), 8u);
    EXPECT_DOUBLE_EQ(cache.hitRate(), 0.5);

    cache.reset();
    for (int pass = 0; pass < 2; ++pass)
        for (uint64_t line = 0; line < 16; ++line)
            cache.access(line * 64); // 16 lines, 8 sets: self-evicting
    EXPECT_EQ(cache.misses(), 32u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_DOUBLE_EQ(cache.hitRate(), 0.0);
}

TEST(CacheModel, ResetClears)
{
    CacheModel cache(1024, 2, 64);
    cache.access(0x0);
    cache.access(0x0);
    cache.reset();
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_FALSE(cache.access(0x0));
}

TEST(CacheModel, RejectsDegenerateConfig)
{
    EXPECT_THROW(CacheModel(0, 2, 64), FatalError);
    EXPECT_THROW(CacheModel(1024, 0, 64), FatalError);
}

TEST(DramModel, UncontendedLatency)
{
    DramModel dram(300, 64.0, 128); // 2 cycles per line
    EXPECT_EQ(dram.access(1000), 302u); // latency + own transfer
    EXPECT_EQ(dram.accesses(), 1u);
}

TEST(DramModel, QueueingUnderBurst)
{
    DramModel dram(300, 64.0, 128);
    // Ten back-to-back requests at the same cycle: each queues behind
    // the previous transfers.
    unsigned prev = 0;
    for (int i = 0; i < 10; ++i) {
        const unsigned lat = dram.access(0);
        EXPECT_GT(lat, prev);
        prev = lat;
    }
    EXPECT_EQ(prev, 300u + 10 * 2);
}

TEST(DramModel, IdleGapsDrainTheQueue)
{
    DramModel dram(300, 64.0, 128);
    for (int i = 0; i < 10; ++i)
        dram.access(0);
    // Far in the future the channel is idle again.
    EXPECT_EQ(dram.access(100000), 302u);
}

} // namespace
} // namespace lmi
