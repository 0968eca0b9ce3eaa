/**
 * @file
 * Unit tests for the compiler: pointer analysis (Fig. 8), codegen
 * (Fig. 7 stack idiom, hint bits), inlining with scope markers, and the
 * DBI instrumenter.
 */

#include <gtest/gtest.h>

#include "analysis/verify.hpp"
#include "compiler/codegen.hpp"
#include "compiler/instrument.hpp"
#include "ir/builder.hpp"
#include "sim/device.hpp"

namespace lmi {
namespace {

using namespace ir;

IrModule
singleKernelModule(IrFunction f)
{
    IrModule m;
    m.functions.push_back(std::move(f));
    return m;
}

/** out[tid] = in[tid] * 2 with a stack staging buffer. */
IrModule
stackKernel()
{
    IrFunction f = IrBuilder::makeKernel(
        "stacky", {{"in", Type::ptr(4)}, {"out", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto in = b.param(0);
    auto out = b.param(1);
    auto tid = b.gtid();
    auto buf = b.alloca_(96, 4); // the 0x60 frame of the paper's Fig. 7
    auto slot = b.gep(buf, b.constInt(3));
    auto v = b.load(b.gep(in, tid));
    b.store(slot, v);
    auto v2 = b.load(slot);
    b.store(b.gep(out, tid), v2);
    b.ret();
    return singleKernelModule(std::move(f));
}

TEST(PointerAnalysis, FindsGepAndPtrAdds)
{
    IrModule m = stackKernel();
    const PointerAnalysis pa = analyzePointers(m.functions[0]);
    EXPECT_TRUE(pa.ok());
    unsigned geps = 0;
    for (ValueId v = 1; v < m.functions[0].values.size(); ++v)
        if (m.functions[0].inst(v).op == IrOp::Gep)
            geps += pa.pointer_ops.count(v);
    EXPECT_EQ(geps, 3u);
}

TEST(PointerAnalysis, RejectsIntToPtr)
{
    IrFunction f = IrBuilder::makeKernel("evil", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto i = b.constInt(0x1234);
    auto p = b.intToPtr(i, Type::ptr(4));
    b.store(p, i);
    b.ret();
    const PointerAnalysis pa = analyzePointers(f);
    ASSERT_FALSE(pa.ok());
    EXPECT_NE(pa.violations[0].message.find("inttoptr"), std::string::npos);
    EXPECT_EQ(pa.violations[0].severity, analysis::Severity::Error);
    EXPECT_EQ(pa.violations[0].function, "evil");
}

TEST(PointerAnalysis, RejectsPointerStore)
{
    IrFunction f = IrBuilder::makeKernel("escape", {{"p", Type::ptr(8)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto p = b.param(0);
    b.store(p, p); // store a pointer value to memory
    b.ret();
    const PointerAnalysis pa = analyzePointers(f);
    ASSERT_FALSE(pa.ok());
    EXPECT_NE(pa.violations[0].message.find("store of pointer"),
              std::string::npos);
}

TEST(PointerAnalysis, RejectsPtrToInt)
{
    IrFunction f = IrBuilder::makeKernel("launder", {{"p", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    b.ptrToInt(b.param(0));
    b.ret();
    const PointerAnalysis pa = analyzePointers(f);
    ASSERT_FALSE(pa.ok());
    EXPECT_NE(pa.violations[0].message.find("ptrtoint"), std::string::npos);
    EXPECT_TRUE(analyzePointers(f, /*restrict_casts=*/false).ok());
}

TEST(PointerAnalysis, RejectsPointerLoad)
{
    IrFunction f = IrBuilder::makeKernel("reload", {{"pp", Type::ptr(8)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    // Read a pointer back from memory; the builder types loads as
    // integers, so retype this one by hand.
    f.inst(b.load(b.param(0))).type = Type::ptr(4);
    b.ret();
    const PointerAnalysis pa = analyzePointers(f);
    ASSERT_FALSE(pa.ok());
    EXPECT_NE(pa.violations[0].message.find("load of pointer-typed"),
              std::string::npos);
}

TEST(PointerAnalysis, CastsAllowedWhenUnrestricted)
{
    IrFunction f = IrBuilder::makeKernel("legacy", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto i = b.constInt(0x1234);
    b.intToPtr(i, Type::ptr(4));
    b.ret();
    EXPECT_TRUE(analyzePointers(f, /*restrict_casts=*/false).ok());
}

TEST(Codegen, BaselineHasNoHints)
{
    const CompiledKernel ck =
        compileKernel(stackKernel(), "stacky", CodegenOptions{});
    for (const auto& inst : ck.program.code)
        EXPECT_FALSE(inst.hints.active);
}

TEST(Codegen, LmiMarksPointerOps)
{
    CodegenOptions opts;
    opts.lmi = true;
    const CompiledKernel ck = compileKernel(stackKernel(), "stacky", opts);
    unsigned hinted = 0;
    for (const auto& inst : ck.program.code)
        if (inst.hints.active) {
            ++hinted;
            EXPECT_TRUE(isIntAlu(inst.op)) << inst.toString();
        }
    EXPECT_EQ(hinted, 3u); // the three geps
}

TEST(Codegen, PrologueFollowsFig7)
{
    CodegenOptions opts;
    const CompiledKernel ck = compileKernel(stackKernel(), "stacky", opts);
    const auto& code = ck.program.code;
    ASSERT_GE(code.size(), 2u);
    // MOV R1, c[0x0][0x28]
    EXPECT_EQ(code[0].op, Opcode::MOV);
    EXPECT_EQ(code[0].dst, int(kStackPtrReg));
    EXPECT_EQ(code[0].src[0].kind, Operand::Kind::CBank);
    EXPECT_EQ(code[0].src[0].value, Program::kStackPtrOffset);
    // ISUB R1, R1, frame
    EXPECT_EQ(code[1].op, Opcode::ISUB);
    EXPECT_EQ(code[1].dst, int(kStackPtrReg));
    EXPECT_EQ(code[1].src[1].value, ck.program.frame_bytes);
    // 96 B packed frame matches the paper's 0x60.
    EXPECT_EQ(ck.program.frame_bytes, 0x60u);
}

TEST(Codegen, LmiRoundsFrameToPow2)
{
    CodegenOptions opts;
    opts.lmi = true;
    const CompiledKernel ck = compileKernel(stackKernel(), "stacky", opts);
    // 96 B buffer -> 256 B (K) reserved, frame is 256-aligned.
    EXPECT_EQ(ck.program.frame_bytes, 256u);
    ASSERT_EQ(ck.frame.buffers.size(), 1u);
    EXPECT_EQ(ck.frame.buffers[0].requested, 96u);
    EXPECT_EQ(ck.frame.buffers[0].reserved, 256u);
    EXPECT_EQ(ck.frame.buffers[0].offset % 256, 0u);
}

TEST(Codegen, LmiEmitsExtentEncodeForAlloca)
{
    CodegenOptions opts;
    opts.lmi = true;
    const CompiledKernel ck = compileKernel(stackKernel(), "stacky", opts);
    // Expect the MOV/SHL/LOP.OR extent sequence after the alloca IADD.
    const auto& code = ck.program.code;
    bool found = false;
    for (size_t i = 0; i + 2 < code.size(); ++i) {
        if (code[i].op == Opcode::MOV && code[i].dst == int(kScratchReg0) &&
            code[i + 1].op == Opcode::SHL &&
            code[i + 1].src[1].value == kExtentShift &&
            code[i + 2].op == Opcode::LOP_OR) {
            found = true;
            break;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Codegen, LmiCompileErrorOnIntToPtr)
{
    IrFunction f = IrBuilder::makeKernel("evil", {{"out", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto i = b.constInt(0x100);
    auto p = b.intToPtr(i, Type::ptr(4));
    auto v = b.load(p);
    b.store(b.gep(b.param(0), b.constInt(0)), v);
    b.ret();
    CodegenOptions opts;
    opts.lmi = true;
    EXPECT_THROW(compileKernel(singleKernelModule(std::move(f)), "evil",
                               opts),
                 CompileError);
}

TEST(Codegen, FreeNullifiesUnderLmi)
{
    IrFunction f = IrBuilder::makeKernel("heapy", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto size = b.constInt(512);
    auto p = b.malloc_(size, 4);
    b.free_(p);
    b.ret();
    CodegenOptions opts;
    opts.lmi = true;
    const CompiledKernel ck =
        compileKernel(singleKernelModule(std::move(f)), "heapy", opts);
    // Find FREE followed by SHL/SHR on the same register.
    const auto& code = ck.program.code;
    bool found = false;
    for (size_t i = 0; i + 2 < code.size(); ++i) {
        if (code[i].op == Opcode::FREE && code[i + 1].op == Opcode::SHL &&
            code[i + 2].op == Opcode::SHR &&
            code[i + 1].src[1].value == kExtentBits) {
            found = true;
            EXPECT_EQ(code[i + 1].dst, int(code[i].src[0].value));
        }
    }
    EXPECT_TRUE(found);
}

TEST(Codegen, SwBaggyInjectsCheckSequences)
{
    CodegenOptions base, baggy;
    baggy.sw_baggy = true;
    const CompiledKernel ck0 = compileKernel(stackKernel(), "stacky", base);
    const CompiledKernel ck1 = compileKernel(stackKernel(), "stacky", baggy);
    // 3 pointer ops x 6-instruction check + extent-encode + error stub.
    EXPECT_GT(ck1.program.code.size(), ck0.program.code.size() + 18);
    bool has_trap = false;
    for (const auto& inst : ck1.program.code)
        has_trap |= inst.op == Opcode::TRAP;
    EXPECT_TRUE(has_trap);
}

TEST(Inline, CallBecomesJumpAndScopeEnd)
{
    IrModule m;
    {
        // Device function: fills a local buffer, returns its first elem.
        IrFunction helper = IrBuilder::makeKernel("helper", {});
        helper.ret_type = Type::i64();
        IrBuilder b(helper);
        b.setInsertPoint(b.block("entry"));
        auto buf = b.alloca_(256, 8); // i64 slots: the load is i64 too
        auto idx = b.constInt(0);
        auto slot = b.gep(buf, idx);
        auto c = b.constInt(7);
        b.store(slot, c);
        auto v = b.load(slot);
        b.retVal(v);
        m.functions.push_back(std::move(helper));
    }
    {
        IrFunction kernel =
            IrBuilder::makeKernel("main", {{"out", Type::ptr(4)}});
        IrBuilder b(kernel);
        b.setInsertPoint(b.block("entry"));
        auto r = b.call("helper", Type::i64(), {});
        b.store(b.gep(b.param(0), b.constInt(0)), r);
        b.ret();
        m.functions.push_back(std::move(kernel));
    }

    const IrFunction flat = inlineCalls(m, *m.find("main"));
    EXPECT_TRUE(analysis::verifyFunction(flat).empty());
    unsigned calls = 0, scope_ends = 0, allocas = 0;
    for (BlockId b = 0; b < flat.blocks.size(); ++b)
        for (ValueId v : flat.blocks[b].insts) {
            calls += flat.inst(v).op == IrOp::Call;
            scope_ends += flat.inst(v).op == IrOp::ScopeEnd;
            allocas += flat.inst(v).op == IrOp::Alloca;
        }
    EXPECT_EQ(calls, 0u);
    EXPECT_EQ(scope_ends, 1u);
    EXPECT_EQ(allocas, 1u);

    // And it compiles under LMI, nullifying at the scope end.
    CodegenOptions opts;
    opts.lmi = true;
    EXPECT_NO_THROW(compileKernel(m, "main", opts));
}

TEST(Inline, UnknownCalleeIsFatal)
{
    IrFunction kernel = IrBuilder::makeKernel("main", {});
    IrBuilder b(kernel);
    b.setInsertPoint(b.block("entry"));
    b.call("ghost", Type::voidTy(), {});
    b.ret();
    IrModule m = singleKernelModule(std::move(kernel));
    EXPECT_THROW(inlineCalls(m, m.functions[0]), FatalError);
}

TEST(Dbi, MemcheckInstrumentsLdst)
{
    const CompiledKernel ck =
        compileKernel(stackKernel(), "stacky", CodegenOptions{});
    DbiOptions opts;
    opts.check_alu_instrs = 10;
    opts.check_mem_loads = 2;
    DbiReport rep;
    const Program instr = instrumentProgram(ck.program, opts, &rep);
    EXPECT_EQ(rep.sites_ldst, 4u); // two loads + two stores
    EXPECT_EQ(rep.sites_pointer, 0u);
    EXPECT_EQ(instr.code.size(),
              ck.program.code.size() + rep.injected_instructions);
    // 1 seed + 2*(shr+ldg) + 10 alu = 15 per site
    EXPECT_EQ(rep.injected_instructions, 4u * 15u);
}

TEST(Dbi, LmiDbiInstrumentsPointerOpsToo)
{
    CodegenOptions copts;
    copts.lmi = true;
    const CompiledKernel ck = compileKernel(stackKernel(), "stacky", copts);
    DbiOptions opts;
    opts.instrument_pointer_ops = true;
    DbiReport rep;
    instrumentProgram(ck.program, opts, &rep);
    EXPECT_EQ(rep.sites_pointer, 3u); // the hinted geps
    EXPECT_GT(rep.checkToLdstRatio(), 1.0);
}

TEST(Dbi, BranchTargetsRemapped)
{
    // Build a loop kernel, instrument it, and ensure branches still
    // point at the first instruction of their original target.
    IrFunction f = IrBuilder::makeKernel(
        "loop", {{"out", Type::ptr(4)}, {"n", Type::i64()}});
    IrBuilder b(f);
    auto entry = b.block("entry");
    auto header = b.block("header");
    auto exit = b.block("exit");
    b.setInsertPoint(entry);
    auto zero = b.constInt(0);
    auto n = b.param(1);
    auto out = b.param(0);
    b.jump(header);
    b.setInsertPoint(header);
    auto i = b.phi(Type::i64(), {{zero, entry}});
    auto slot = b.gep(out, i);
    b.store(slot, i);
    auto next = b.iadd(i, b.constInt(1));
    f.inst(i).ops.push_back(next);
    f.inst(i).phi_blocks.push_back(header);
    auto c = b.icmp(CmpOp::LT, next, n);
    b.br(c, header, exit);
    b.setInsertPoint(exit);
    b.ret();

    const CompiledKernel ck = compileKernel(singleKernelModule(std::move(f)),
                                            "loop", CodegenOptions{});
    DbiOptions opts;
    DbiReport rep;
    const Program instr = instrumentProgram(ck.program, opts, &rep);
    EXPECT_NO_THROW(instr.validate());
    EXPECT_GT(rep.sites_ldst, 0u);
}

} // namespace
} // namespace lmi

namespace lmi {
namespace {

using namespace ir;

TEST(RegAlloc, ReusesRegistersForShortLivedValues)
{
    // 600 sequential dependent values: with one-register-per-value this
    // would exhaust the file; the linear-scan allocator must reuse.
    IrFunction f = IrBuilder::makeKernel("chain", {{"out", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto x = b.constInt(1);
    auto three = b.constInt(3);
    for (int i = 0; i < 600; ++i)
        x = b.iadd(b.imul(x, three), three);
    b.store(b.gep(b.param(0), b.constInt(0)), x);
    b.ret();
    IrModule m;
    m.functions.push_back(std::move(f));

    // 600 values exceed the 245-register pool: compiling at all proves
    // reuse (the pool is drained round-robin to space out writes).
    const CompiledKernel ck = compileKernel(m, "chain", CodegenOptions{});
    unsigned max_reg = 0;
    for (const auto& inst : ck.program.code)
        if (inst.dst > int(max_reg))
            max_reg = unsigned(inst.dst);
    EXPECT_LT(max_reg, kMaxValueReg);
}

TEST(RegAlloc, LoopCarriedValuesSurviveBackEdges)
{
    // A constant defined before the loop and used inside must keep its
    // register across iterations even when many temporaries churn.
    IrFunction f = IrBuilder::makeKernel(
        "loopsum", {{"out", Type::ptr(8)}, {"n", Type::i64()}});
    IrBuilder b(f);
    auto entry = b.block("entry");
    auto header = b.block("header");
    auto body = b.block("body");
    auto exit = b.block("exit");

    b.setInsertPoint(entry);
    auto seven = b.constInt(7); // live across the whole loop
    auto n = b.param(1);
    auto zero = b.constInt(0);
    b.jump(header);

    b.setInsertPoint(header);
    auto i = b.phi(Type::i64(), {{zero, entry}});
    auto acc = b.phi(Type::i64(), {{zero, entry}});
    auto cond = b.icmp(CmpOp::LT, i, n);
    b.br(cond, body, exit);

    b.setInsertPoint(body);
    ValueId t = acc;
    for (int k = 0; k < 40; ++k) // register churn inside the loop
        t = b.iadd(t, seven);
    auto next_i = b.iadd(i, b.constInt(1));
    f.inst(i).ops.push_back(next_i);
    f.inst(i).phi_blocks.push_back(body);
    f.inst(acc).ops.push_back(t);
    f.inst(acc).phi_blocks.push_back(body);
    b.jump(header);

    b.setInsertPoint(exit);
    b.store(b.gep(b.param(0), b.constInt(0)), acc);
    b.ret();
    IrModule m;
    m.functions.push_back(std::move(f));

    Device dev;
    const uint64_t out = dev.cudaMalloc(256);
    const CompiledKernel k = dev.compile(m, "loopsum");
    const RunResult r = dev.launch(k, 1, 1, {out, 5});
    ASSERT_FALSE(r.faulted());
    // 5 iterations x 40 adds of 7 each.
    EXPECT_EQ(dev.peek64(out), uint64_t(5 * 40 * 7));
}

TEST(RegAlloc, HugeKernelStillFitsUnderLmi)
{
    // The LMI variant adds extent sequences and keeps allocas alive to
    // the end; a large kernel must still allocate.
    IrFunction f = IrBuilder::makeKernel("big", {{"out", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto buf = b.alloca_(512, 4);
    auto t = b.gtid();
    ValueId x = b.load(b.gep(buf, b.iand(t, b.constInt(63))));
    auto c1 = b.constInt(1);
    for (int i = 0; i < 400; ++i)
        x = b.iadd(x, c1);
    b.store(b.gep(b.param(0), t), x);
    b.ret();
    IrModule m;
    m.functions.push_back(std::move(f));
    CodegenOptions opts;
    opts.lmi = true;
    EXPECT_NO_THROW(compileKernel(m, "big", opts));
}

} // namespace
} // namespace lmi
