/**
 * @file
 * Differential and edge-case tests for the dynamic race sanitizer
 * (sim/race_sanitizer.hpp). Seeded operation streams drive it, one
 * warp-wide call per access instruction, and the hash-map reference
 * model (reference_race_sanitizer.hpp), one call per lane, side by
 * side; after every operation their conflict counts, reports and
 * tracked-word counts must agree.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "common/rng.hpp"
#include "reference_race_sanitizer.hpp"
#include "sim/race_sanitizer.hpp"

namespace lmi {
namespace {

constexpr MemScope kScopes[] = {MemScope::Cta, MemScope::Gpu,
                                MemScope::Sys};

/** Global addresses cluster near page boundaries so words collide and
 *  wide accesses and allocations cross pages. */
uint64_t
globalAddr(Rng& rng)
{
    static constexpr uint64_t kBases[] = {0x0fe0, 0x10000 - 24, 0x3fff0,
                                          0x1'0000'0ff8, 0x7'ffff'f000};
    return kBases[rng.below(5)] + rng.below(96);
}

uint64_t
sharedAddr(Rng& rng)
{
    static constexpr uint64_t kBases[] = {0x0, 0x0fe8, 0x2ff8};
    return kBases[rng.below(3)] + rng.below(64);
}

/** Runs one seeded stream through both models, comparing after each op. */
void
runStream(uint64_t seed, size_t ops)
{
    Rng rng(seed);
    RaceSanitizer real;
    test::ReferenceRaceSanitizer ref;
    // Fewer live blocks and warps in some streams give denser conflicts.
    const uint32_t blocks = uint32_t(rng.range(1, 6));
    const uint32_t warps = uint32_t(rng.range(1, 4));
    for (size_t i = 0; i < ops; ++i) {
        const uint64_t kind = rng.below(100);
        const uint32_t block = uint32_t(rng.below(blocks));
        if (kind < 80) {
            const uint64_t s = rng.below(20);
            const MemSpace space = s < 10   ? MemSpace::Global
                                   : s < 19 ? MemSpace::Shared
                                            : MemSpace::Local;
            // One warp instruction: one lane, every lane or a random
            // mask; lanes coalesced from one base or scattered.
            const uint32_t warp = uint32_t(rng.below(warps));
            const uint32_t first_gtid = block * 128 + warp * 32;
            const uint64_t pc = rng.below(64);
            const uint64_t m = rng.below(4);
            const uint32_t lanes = m == 0   ? 1u << rng.below(32)
                                   : m == 1 ? ~0u
                                            : uint32_t(rng.next());
            const bool coalesced = rng.chance(0.5);
            const auto addr = [&] {
                return space == MemSpace::Global ? globalAddr(rng)
                                                 : sharedAddr(rng);
            };
            std::array<uint64_t, 32> addrs;
            const uint64_t base = addr();
            for (unsigned l = 0; l < 32; ++l)
                addrs[l] = coalesced ? base + 4 * l : addr();
            const unsigned width = unsigned(rng.range(0, 16));
            const bool is_store = rng.chance(0.5);
            const bool is_atomic = rng.chance(0.25);
            const MemScope scope = kScopes[rng.below(3)];
            real.onWarpAccess(space, block, warp, first_gtid, pc, lanes,
                              addrs.data(), width, is_store, is_atomic,
                              scope);
            for (unsigned l = 0; l < 32; ++l)
                if (lanes & (1u << l))
                    ref.onAccess(space, block, warp, first_gtid + l, pc,
                                 addrs[l], width, is_store, is_atomic,
                                 scope);
        } else if (kind < 87) {
            real.onBarrierRelease(block);
            ref.onBarrierRelease(block);
        } else if (kind < 92) {
            real.onBlockRetire(block);
            ref.onBlockRetire(block);
        } else {
            static constexpr uint64_t kSizes[] = {0, 1, 3, 4, 64, 4096,
                                                  2 * 4096 + 7};
            const uint64_t size = rng.chance(0.5) ? kSizes[rng.below(7)]
                                                  : rng.below(200);
            const uint64_t ptr = globalAddr(rng);
            real.onDeviceAlloc(ptr, size);
            ref.onDeviceAlloc(ptr, size);
        }

        ASSERT_EQ(real.conflictCount(), ref.conflictCount())
            << "seed " << seed << " op " << i;
        ASSERT_EQ(real.wordsTracked(), ref.wordsTracked())
            << "seed " << seed << " op " << i;
        ASSERT_EQ(real.reports().size(), ref.reports().size())
            << "seed " << seed << " op " << i;
        // Reports are append-only: compare each one as it appears, and
        // the whole list again at the end of the stream.
        if (!ref.reports().empty()) {
            ASSERT_EQ(real.reports().back().toString(),
                      ref.reports().back().toString())
                << "seed " << seed << " op " << i;
        }
    }
    for (size_t r = 0; r < ref.reports().size(); ++r)
        EXPECT_EQ(real.reports()[r].toString(),
                  ref.reports()[r].toString())
            << "seed " << seed << " report " << r;
}

TEST(RaceSanitizer, MatchesReferenceModelOnSeededStreams)
{
    for (uint64_t seed = 1; seed <= 48; ++seed)
        runStream(seed, 1500);
}

TEST(RaceSanitizer, DeviceAllocMidPageForgetsOnlyItsWords)
{
    // Words 0x1ff0..0x201c span the page boundary at 0x2000. The
    // allocation [0x1ff6, 0x2012) starts and ends mid-word and
    // mid-page: it forgets words 0x1ff4..0x2010 (8 words) and keeps
    // their neighbours.
    RaceSanitizer s;
    for (uint64_t a = 0x1ff0; a < 0x2020; a += 4)
        s.onAccess(MemSpace::Global, 0, 0, 0, 1, a, 4, true);
    ASSERT_EQ(s.wordsTracked(), 12u);
    s.onDeviceAlloc(0x1ff6, 0x1c);
    EXPECT_EQ(s.wordsTracked(), 4u);

    // Forgotten words no longer conflict; neighbours still do.
    for (uint64_t a = 0x1ff0; a < 0x2020; a += 4)
        s.onAccess(MemSpace::Global, 1, 0, 64, 2, a, 4, true);
    EXPECT_EQ(s.conflictCount(), 4u);
    ASSERT_EQ(s.reports().size(), 4u);
    EXPECT_EQ(s.reports()[0].addr, 0x1ff0u);
    EXPECT_EQ(s.reports()[1].addr, 0x2014u);
    EXPECT_EQ(s.reports()[3].addr, 0x201cu);

    // Size 0 forgets exactly the word holding ptr.
    s.onDeviceAlloc(0x2016, 0);
    EXPECT_EQ(s.wordsTracked(), 11u);
}

TEST(RaceSanitizer, AccessEndingPastAddressSpaceTopWraps)
{
    // Bytes 0x...fffe, 0x...ffff, 0x0, 0x1: the last word and word 0.
    constexpr uint64_t kTop = 0xFFFF'FFFF'FFFF'FFFEull;
    RaceSanitizer s;
    s.onAccess(MemSpace::Global, 0, 0, 0, 1, kTop, 4, true);
    s.onAccess(MemSpace::Global, 0, 1, 32, 2, kTop, 4, true);
    EXPECT_EQ(s.wordsTracked(), 2u);
    EXPECT_EQ(s.conflictCount(), 2u);
    ASSERT_EQ(s.reports().size(), 2u);
    EXPECT_EQ(s.reports()[0].addr, 0xFFFF'FFFF'FFFF'FFFCull);
    EXPECT_EQ(s.reports()[1].addr, 0u);

    // A store to word 0 alone conflicts with the wrapped one.
    s.onAccess(MemSpace::Global, 1, 0, 64, 3, 0x0, 4, true);
    EXPECT_EQ(s.conflictCount(), 3u);

    // An allocation wrapping the same way forgets both words.
    s.onDeviceAlloc(kTop, 4);
    EXPECT_EQ(s.wordsTracked(), 0u);
}

} // namespace
} // namespace lmi
