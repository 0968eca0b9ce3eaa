/**
 * @file
 * Unit tests for the kernel IR and builder.
 */

#include <gtest/gtest.h>

#include "analysis/verify.hpp"
#include "common/logging.hpp"
#include "ir/builder.hpp"
#include "ir/ir.hpp"

namespace lmi {
namespace {

using namespace ir;

/** A minimal valid kernel: out[tid] = in[tid]. */
IrFunction
copyKernel()
{
    IrFunction f = IrBuilder::makeKernel(
        "copy", {{"in", Type::ptr(4)}, {"out", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto in = b.param(0);
    auto out = b.param(1);
    auto tid = b.gtid();
    auto src = b.gep(in, tid);
    auto dst = b.gep(out, tid);
    auto v = b.load(src);
    b.store(dst, v);
    b.ret();
    return f;
}

TEST(Ir, TypeProperties)
{
    EXPECT_TRUE(Type::ptr(4).isPtr());
    EXPECT_TRUE(Type::i64().isInt());
    EXPECT_TRUE(Type::f32().isFloat());
    EXPECT_EQ(Type::i32().accessWidth(), 4u);
    EXPECT_EQ(Type::i64().accessWidth(), 8u);
    EXPECT_EQ(Type::ptr(4).accessWidth(), 8u);
    EXPECT_EQ(Type::ptr(4, MemSpace::Shared).space, MemSpace::Shared);
}

TEST(Ir, BuilderProducesVerifiableKernel)
{
    IrFunction f = copyKernel();
    EXPECT_NO_THROW(analysis::verifyOrThrow(f));
    EXPECT_EQ(f.blocks.size(), 1u);
    // param, param, gtid, gep, gep, load, store, ret
    EXPECT_EQ(f.blocks[0].insts.size(), 8u);
}

TEST(Ir, ToStringRendersCore)
{
    IrFunction f = copyKernel();
    const std::string s = f.toString();
    EXPECT_NE(s.find("define void @copy"), std::string::npos);
    EXPECT_NE(s.find("gep"), std::string::npos);
    EXPECT_NE(s.find("ptr<4,global>"), std::string::npos);
}

TEST(Ir, VerifyRejectsMissingTerminator)
{
    IrFunction f = IrBuilder::makeKernel("bad", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    b.constInt(1);
    EXPECT_THROW(analysis::verifyOrThrow(f), FatalError);
}

TEST(Ir, PhiLeadsBlock)
{
    IrFunction f = IrBuilder::makeKernel("loop", {{"n", Type::i64()}});
    IrBuilder b(f);
    auto entry = b.block("entry");
    auto header = b.block("header");
    auto exit = b.block("exit");

    b.setInsertPoint(entry);
    auto zero = b.constInt(0);
    auto n = b.param(0);
    b.jump(header);

    b.setInsertPoint(header);
    auto one = b.constInt(1); // emitted before the phi textually
    auto i = b.phi(Type::i64(), {{zero, entry}});
    auto next = b.iadd(i, one);
    f.inst(i).ops.push_back(next);
    f.inst(i).phi_blocks.push_back(header);
    auto cond = b.icmp(CmpOp::LT, next, n);
    b.br(cond, header, exit);

    b.setInsertPoint(exit);
    b.ret();

    EXPECT_NO_THROW(analysis::verifyOrThrow(f));
    EXPECT_EQ(f.inst(f.blocks[header].insts[0]).op, IrOp::Phi);
}

TEST(Ir, SharedBufferDeclared)
{
    IrFunction f = IrBuilder::makeKernel("sh", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto p = b.sharedBuffer("tile", 1024, 4);
    EXPECT_EQ(f.inst(p).type.space, MemSpace::Shared);
    b.ret();
    EXPECT_NO_THROW(analysis::verifyOrThrow(f));
    ASSERT_EQ(f.shared_buffers.size(), 1u);
    EXPECT_EQ(f.shared_buffers[0].second, 1024u);
}

TEST(Ir, ModuleFind)
{
    IrModule m;
    m.functions.push_back(copyKernel());
    EXPECT_NE(m.find("copy"), nullptr);
    EXPECT_EQ(m.find("nope"), nullptr);
}

} // namespace
} // namespace lmi
