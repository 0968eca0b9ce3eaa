/**
 * @file
 * Unit tests for the Overflow Checking Unit and Extent Checker
 * (paper §VII, §VIII, §XII-A).
 */

#include <gtest/gtest.h>

#include "core/extent_checker.hpp"
#include "core/ocu.hpp"

namespace lmi {
namespace {

class OcuTest : public ::testing::Test
{
  protected:
    PointerCodec codec;
    StatRegistry stats;
    Ocu ocu{&stats};
};

TEST_F(OcuTest, InBoundsArithmeticPasses)
{
    const uint64_t p = codec.encode(0x12345600, 256);
    // Walk the whole buffer: base .. base+255.
    for (uint64_t off = 0; off < 256; ++off) {
        const OcuResult r = ocu.check(p, p + off);
        EXPECT_FALSE(r.violation) << "offset " << off;
        EXPECT_TRUE(PointerCodec::isValid(r.out));
    }
    EXPECT_EQ(stats.counter("ocu.violations"), 0u);
}

TEST_F(OcuTest, OutOfBoundsPoisonsExtent)
{
    // §IV-A2's example: 0x12345678 + enough to reach 0x12345700 escapes
    // the 256 B buffer based at 0x12345600.
    const uint64_t p = codec.encode(0x12345678, 256);
    const OcuResult r = ocu.check(p, p + (0x12345700 - 0x12345678));
    EXPECT_TRUE(r.violation);
    EXPECT_FALSE(PointerCodec::isDereferenceable(r.out));
    // The repurposed debug extent records the cause (§IV-A3).
    EXPECT_EQ(PointerCodec::extentOf(r.out), kPoisonSpatial);
    EXPECT_EQ(PointerCodec::addressOf(r.out), 0x12345700u);
    EXPECT_EQ(stats.counter("ocu.violations"), 1u);
}

TEST_F(OcuTest, UnderflowBelowBasePoisons)
{
    const uint64_t p = codec.encode(0x12345600, 256);
    const OcuResult r = ocu.check(p, p - 1);
    EXPECT_TRUE(r.violation);
    EXPECT_FALSE(PointerCodec::isDereferenceable(r.out));
}

TEST_F(OcuTest, InvalidInputPropagatesInvalidity)
{
    const uint64_t freed =
        PointerCodec::invalidate(codec.encode(0x1000, 512));
    const OcuResult r = ocu.check(freed, freed + 8);
    EXPECT_FALSE(r.violation); // no *new* violation reported
    EXPECT_FALSE(PointerCodec::isValid(r.out));
    EXPECT_EQ(stats.counter("ocu.invalid_input"), 1u);
}

TEST_F(OcuTest, ExtentFieldTamperingIsCaught)
{
    // Arithmetic that carries into the extent field must poison.
    const uint64_t p = codec.encode(0x1000, 256);
    const uint64_t tampered = p + (uint64_t(1) << kExtentShift);
    const OcuResult r = ocu.check(p, tampered);
    EXPECT_TRUE(r.violation);
    EXPECT_FALSE(PointerCodec::isDereferenceable(r.out));
}

TEST_F(OcuTest, LargeBufferBoundary)
{
    const uint64_t size = uint64_t(1) << 20; // 1 MiB
    const uint64_t base = size * 5;
    const uint64_t p = codec.encode(base, size);
    EXPECT_FALSE(ocu.check(p, p + size - 1).violation);
    EXPECT_TRUE(ocu.check(p, p + size).violation);
}

TEST_F(OcuTest, ChecksAreCounted)
{
    const uint64_t p = codec.encode(0x2000, 256);
    ocu.check(p, p + 1);
    ocu.check(p, p + 2);
    EXPECT_EQ(stats.counter("ocu.checks"), 2u);
}

TEST_F(OcuTest, ExtraLatencyMatchesPaper)
{
    // §XI-C: two register slices -> three-cycle OCU delay.
    EXPECT_EQ(Ocu::kExtraLatency, 3u);
}

TEST(ExtentChecker, ValidPointerPassesAndStripsExtent)
{
    StatRegistry stats;
    ExtentChecker ec(&stats);
    const PointerCodec codec;
    const uint64_t p = codec.encode(0x1234500, 256);
    const EcResult r = ec.check(p);
    EXPECT_FALSE(r.fault.has_value());
    EXPECT_EQ(r.address, 0x1234500u);
    EXPECT_EQ(stats.counter("ec.faults"), 0u);
}

TEST(ExtentChecker, ZeroExtentFaultsWithCause)
{
    ExtentChecker ec;
    const uint64_t bad = 0x1234500; // no extent bits set

    const EcResult spatial = ec.check(bad, PoisonCause::Spatial);
    ASSERT_TRUE(spatial.fault.has_value());
    EXPECT_EQ(spatial.fault->kind, FaultKind::SpatialOverflow);

    const EcResult freed = ec.check(bad, PoisonCause::Freed);
    ASSERT_TRUE(freed.fault.has_value());
    EXPECT_EQ(freed.fault->kind, FaultKind::UseAfterFree);

    const EcResult scope = ec.check(bad, PoisonCause::ScopeExit);
    ASSERT_TRUE(scope.fault.has_value());
    EXPECT_EQ(scope.fault->kind, FaultKind::UseAfterScope);

    const EcResult unknown = ec.check(bad);
    ASSERT_TRUE(unknown.fault.has_value());
    EXPECT_EQ(unknown.fault->kind, FaultKind::InvalidExtent);
}

TEST(ExtentChecker, DelayedTerminationIdiom)
{
    // Fig. 14: the loop pointer walks one past the end but is never
    // dereferenced there — the OCU poisons it, yet no fault is raised
    // because the EC is never consulted for that value.
    const PointerCodec codec;
    Ocu ocu;
    ExtentChecker ec;

    // 64 ints = 256 B, exactly the minimum allocation: one-past-the-end
    // leaves the aligned region. (A 16-int buffer would round up to 256 B
    // and the overrun would land in the alignment slack — allocation-
    // granularity detection, as in all pointer-aligning schemes.)
    const uint64_t size = 64 * sizeof(int);
    const uint64_t start = codec.encode(0x10000, size);
    uint64_t ptr = start;
    int faults = 0;
    for (int i = 0; i < 64; ++i) {
        // Dereference, then increment (ptr++ of an int*).
        if (ec.check(ptr).fault)
            ++faults;
        ptr = ocu.check(ptr, ptr + sizeof(int)).out;
    }
    EXPECT_EQ(faults, 0);
    // After the loop the pointer is poisoned but unused: still no fault.
    EXPECT_FALSE(PointerCodec::isDereferenceable(ptr));
    EXPECT_EQ(PointerCodec::extentOf(ptr), kPoisonSpatial);
    // A hypothetical dereference *would* fault — delayed termination —
    // and the debug extent self-classifies it as spatial.
    const EcResult late = ec.check(ptr);
    ASSERT_TRUE(late.fault.has_value());
    EXPECT_EQ(late.fault->kind, FaultKind::SpatialOverflow);
}

// Property sweep: for every extent, offsets inside never poison and the
// first offset outside always does.
class OcuBoundary : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(OcuBoundary, ExactBoundary)
{
    const PointerCodec codec;
    Ocu ocu;
    const unsigned e = GetParam();
    const uint64_t size = codec.sizeForExtent(e);
    if (size > (uint64_t(1) << 40))
        GTEST_SKIP() << "test address region too small";
    const uint64_t base = size * 2;
    const uint64_t p = codec.encode(base, size);
    EXPECT_FALSE(ocu.check(p, p).violation);
    EXPECT_FALSE(ocu.check(p, p + size - 1).violation);
    EXPECT_TRUE(ocu.check(p, p + size).violation);
    EXPECT_TRUE(ocu.check(p, p - 1).violation);
}

INSTANTIATE_TEST_SUITE_P(AllExtents, OcuBoundary,
                         ::testing::Range(1u, kDebugExtentBase));

} // namespace
} // namespace lmi
