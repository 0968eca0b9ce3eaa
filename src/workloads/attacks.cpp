#include "workloads/attacks.hpp"

#include "ir/builder.hpp"

namespace lmi {

using namespace ir;
using analysis::AccessVerdict;

namespace {

IrModule
module(IrFunction f)
{
    IrModule m;
    m.functions.push_back(std::move(f));
    return m;
}

/**
 * malloc(192) pads to a 256 B chunk under the pow2 extent. The attack
 * stores at i32 index 49 (byte 196): past the 192 requested bytes,
 * inside the padding — invisible to any pow2 whole-allocation check.
 */
IrModule
buildIntraPadding(bool benign)
{
    IrFunction f = IrBuilder::makeKernel("intra_padding", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto p = b.malloc_(b.constInt(192), 4);
    b.store(b.gep(p, b.constInt(benign ? 40 : 49)),
            b.constInt(1, Type::i32()));
    b.ret();
    return module(std::move(f));
}

/**
 * A 16 B field carved at byte 64 of a 256 B frame object. The attack
 * indexes element 5 of the 4-element field (byte 84): inside the
 * allocation, outside the field — only sub-K narrowed extents see it.
 */
IrModule
buildSubobjectField(bool benign)
{
    IrFunction f = IrBuilder::makeKernel("subobject_field", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto obj = b.alloca_(256, 4);
    b.store(b.gep(obj, b.constInt(0)), b.constInt(7, Type::i32()));
    auto field = b.fieldPtr(obj, 64, 16);
    b.store(b.gep(field, b.constInt(benign ? 2 : 5)),
            b.constInt(1, Type::i32()));
    b.ret();
    return module(std::move(f));
}

/** Store through the original pointer after free() invalidated it. */
IrModule
buildUafInvalidate(bool benign)
{
    IrFunction f = IrBuilder::makeKernel("uaf_invalidate", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto p = b.malloc_(b.constInt(256), 4);
    b.store(b.gep(p, b.constInt(0)), b.constInt(1, Type::i32()));
    b.free_(p);
    if (!benign)
        b.store(b.gep(p, b.constInt(1)), b.constInt(2, Type::i32()));
    b.ret();
    return module(std::move(f));
}

/**
 * Free, allocate again (the device heap hands the chunk straight
 * back), then store through the stale pointer: the classic
 * use-after-free-into-reallocation. The benign twin stores through the
 * fresh pointer instead.
 */
IrModule
buildUafRealloc(bool benign)
{
    IrFunction f = IrBuilder::makeKernel("uaf_realloc", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto p = b.malloc_(b.constInt(256), 4);
    b.store(b.gep(p, b.constInt(0)), b.constInt(1, Type::i32()));
    b.free_(p);
    auto q = b.malloc_(b.constInt(256), 4);
    b.store(b.gep(q, b.constInt(0)), b.constInt(2, Type::i32()));
    if (!benign)
        b.store(b.gep(p, b.constInt(1)), b.constInt(3, Type::i32()));
    b.ret();
    return module(std::move(f));
}

/**
 * An exactly pow2-sized local buffer leaves no padding: index 64 of a
 * 256 B i32 buffer is the textbook one-past-the-end store and every
 * bounds scheme's bread and butter.
 */
IrModule
buildOffByOne(bool benign)
{
    IrFunction f = IrBuilder::makeKernel("off_by_one", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto buf = b.alloca_(256, 4);
    b.store(b.gep(buf, b.constInt(benign ? 63 : 64)),
            b.constInt(1, Type::i32()));
    b.ret();
    return module(std::move(f));
}

/**
 * A down-counting store sequence. The benign twin walks indices
 * 3..0; the attack continues the stride below the base (indices
 * -1..-4), so every attack offset is provably negative.
 */
IrModule
buildNegStride(bool benign)
{
    IrFunction f = IrBuilder::makeKernel("neg_stride", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto p = b.malloc_(b.constInt(256), 4);
    const int64_t start = benign ? 3 : -1;
    for (int64_t i = 0; i < 4; ++i)
        b.store(b.gep(p, b.constInt(start - i)),
                b.constInt(i + 1, Type::i32()));
    b.ret();
    return module(std::move(f));
}

} // namespace

const std::vector<AttackScenario>&
attackSuite()
{
    static const std::vector<AttackScenario> suite = {
        {"intra_padding",
         "store past requested malloc size, inside the pow2 padding",
         "intra_padding", AccessVerdict::SpatialOOB, buildIntraPadding},
        {"subobject_field",
         "field pointer overflows its field inside the allocation",
         "subobject_field", AccessVerdict::SubObjectOOB,
         buildSubobjectField},
        {"uaf_invalidate",
         "store through the original pointer after free",
         "uaf_invalidate", AccessVerdict::TemporalUAF,
         buildUafInvalidate},
        {"uaf_realloc",
         "store through a stale pointer after the chunk is reallocated",
         "uaf_realloc", AccessVerdict::TemporalUAF, buildUafRealloc},
        {"off_by_one",
         "one-past-the-end store on an exactly pow2-sized buffer",
         "off_by_one", AccessVerdict::SpatialOOB, buildOffByOne},
        {"neg_stride",
         "down-counting stride underflows the allocation base",
         "neg_stride", AccessVerdict::SpatialOOB, buildNegStride},
    };
    return suite;
}

} // namespace lmi
