/**
 * @file
 * Sub-object (intra-object) extension tests — the future-work item the
 * paper's Table III scores 0/3 for every mechanism, implemented here
 * using the spare debug-extent encodings 27..30 as sub-K field extents
 * (16/32/64/128 B).
 */

#include <gtest/gtest.h>

#include "core/extent_checker.hpp"
#include "core/ocu.hpp"
#include "ir/builder.hpp"
#include "ir/parser.hpp"
#include "mechanisms/registry.hpp"
#include "sim/device.hpp"

namespace lmi {
namespace {

using namespace ir;

TEST(SubExtent, CodecHelpers)
{
    EXPECT_TRUE(isSubExtent(27));
    EXPECT_TRUE(isSubExtent(30));
    EXPECT_FALSE(isSubExtent(26));
    EXPECT_FALSE(isSubExtent(31)); // the spatial poison stays reserved
    EXPECT_EQ(subExtentSize(27), 16u);
    EXPECT_EQ(subExtentSize(28), 32u);
    EXPECT_EQ(subExtentSize(29), 64u);
    EXPECT_EQ(subExtentSize(30), 128u);
    EXPECT_EQ(subExtentForSize(32), 28u);
    EXPECT_EQ(subExtentForSize(48), 0u);  // not a power of two
    EXPECT_EQ(subExtentForSize(256), 0u); // K-sized fields use normal extents
}

TEST(SubExtent, OcuEnforcesFieldBounds)
{
    Ocu ocu(nullptr, /*sub_extents=*/true);
    // A 32 B field at a 32 B-aligned address.
    const uint64_t field =
        PointerCodec::poison(0x10020, subExtentForSize(32));
    EXPECT_FALSE(ocu.check(field, field + 31).violation);
    const OcuResult bad = ocu.check(field, field + 32);
    EXPECT_TRUE(bad.violation);
    EXPECT_EQ(PointerCodec::extentOf(bad.out), kPoisonSpatial);
}

TEST(SubExtent, DefaultOcuTreatsSubExtentsAsPoison)
{
    Ocu ocu; // base LMI: 27..31 are all invalid
    const uint64_t field =
        PointerCodec::poison(0x10020, subExtentForSize(32));
    const OcuResult r = ocu.check(field, field + 4);
    EXPECT_FALSE(PointerCodec::isDereferenceable(r.out));
}

TEST(SubExtent, EcAcceptsSubExtentsOnlyWhenEnabled)
{
    const uint64_t field =
        PointerCodec::poison(0x10020, subExtentForSize(64));
    ExtentChecker base_ec;
    EXPECT_TRUE(base_ec.check(field).fault.has_value());
    ExtentChecker sub_ec(nullptr, /*sub_extents=*/true);
    EXPECT_FALSE(sub_ec.check(field).fault.has_value());
    // The poison marker still faults either way.
    const uint64_t poisoned = PointerCodec::poison(0x10020, kPoisonSpatial);
    EXPECT_TRUE(sub_ec.check(poisoned).fault.has_value());
}

/** struct { int a[8]; int b[8]; ... } on a 256 B global object:
 *  writes a[idx] through a field pointer. */
IrModule
structKernel()
{
    IrFunction f = IrBuilder::makeKernel(
        "intra", {{"obj", Type::ptr(4)}, {"idx", Type::i64()}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto field_a = b.fieldPtr(b.param(0), /*off=*/0, /*size=*/32);
    b.store(b.gep(field_a, b.param(1)), b.constInt(0xF1E1D, Type::i32()));
    b.ret();
    IrModule m;
    m.functions.push_back(std::move(f));
    return m;
}

TEST(SubExtent, IntraObjectOverflowDetectedEndToEnd)
{
    Device dev(makeMechanism(MechanismKind::LmiSubobject));
    const uint64_t obj = dev.cudaMalloc(256);
    const CompiledKernel k = dev.compile(structKernel(), "intra");

    // In-field access is clean.
    EXPECT_FALSE(dev.launch(k, 1, 1, {obj, 7}).faulted());
    EXPECT_EQ(dev.peek32(obj + 7 * 4), 0xF1E1Du);

    // a[8] lands in field b: the same allocation, so base LMI cannot see
    // it — the narrowed field extent can.
    const RunResult r = dev.launch(k, 1, 1, {obj, 8});
    ASSERT_TRUE(r.faulted());
    EXPECT_EQ(r.faults[0].kind, FaultKind::SpatialOverflow);
    EXPECT_EQ(dev.peek32(obj + 8 * 4), 0u); // delayed termination held
}

TEST(SubExtent, BaseLmiMissesTheSameOverflow)
{
    Device dev(makeMechanism(MechanismKind::Lmi));
    const uint64_t obj = dev.cudaMalloc(256);
    const CompiledKernel k = dev.compile(structKernel(), "intra");
    // Under base LMI the field pointer keeps the object's extent: a[8]
    // stays inside the 256 B object and passes (Table III: Intra 0).
    EXPECT_FALSE(dev.launch(k, 1, 1, {obj, 8}).faulted());
}

TEST(SubExtent, ObjectBoundsStillEnforced)
{
    // Escaping the whole object through the field pointer still faults.
    Device dev(makeMechanism(MechanismKind::LmiSubobject));
    const uint64_t obj = dev.cudaMalloc(256);
    const CompiledKernel k = dev.compile(structKernel(), "intra");
    EXPECT_TRUE(dev.launch(k, 1, 1, {obj, 4096}).faulted());
}

TEST(SubExtent, LargeFieldsFallBackToObjectExtent)
{
    // A 192 B field is not a representable sub-extent: the pointer keeps
    // the object's extent (coarse, like base LMI), and in-object access
    // works.
    IrFunction f = IrBuilder::makeKernel(
        "bigfield", {{"obj", Type::ptr(4)}, {"idx", Type::i64()}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto field = b.fieldPtr(b.param(0), 0, 192);
    b.store(b.gep(field, b.param(1)), b.constInt(1, Type::i32()));
    b.ret();
    IrModule m;
    m.functions.push_back(std::move(f));

    Device dev(makeMechanism(MechanismKind::LmiSubobject));
    const uint64_t obj = dev.cudaMalloc(256);
    const CompiledKernel k = dev.compile(m, "bigfield");
    EXPECT_FALSE(dev.launch(k, 1, 1, {obj, 50}).faulted());  // in field
    EXPECT_FALSE(dev.launch(k, 1, 1, {obj, 60}).faulted());  // coarse miss
    EXPECT_TRUE(dev.launch(k, 1, 1, {obj, 64}).faulted());   // off object
}

TEST(SubExtent, FieldGepParsesAndRoundTrips)
{
    const IrModule m = structKernel();
    const std::string once = m.functions[0].toString();
    EXPECT_NE(once.find("fieldgep"), std::string::npos);
    const IrFunction parsed = parseFunction(once);
    EXPECT_EQ(parsed.toString(), once);
}

TEST(SubExtent, MechanismRegistered)
{
    auto mech = makeMechanism(MechanismKind::LmiSubobject);
    EXPECT_EQ(mech->name(), "lmi+subobject");
}

} // namespace
} // namespace lmi
