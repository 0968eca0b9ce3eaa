/**
 * @file
 * Unit tests for the ISA definition and the 128-bit microcode codec
 * (paper §VI-B, Fig. 9).
 */

#include <gtest/gtest.h>

#include "arch/isa.hpp"
#include "arch/microcode.hpp"
#include "common/logging.hpp"

namespace lmi {
namespace {

TEST(Isa, OpcodeClassification)
{
    EXPECT_TRUE(isIntAlu(Opcode::IADD));
    EXPECT_TRUE(isIntAlu(Opcode::MOV));
    EXPECT_TRUE(isIntAlu(Opcode::ISETP));
    EXPECT_FALSE(isIntAlu(Opcode::FADD));
    EXPECT_TRUE(isFpAlu(Opcode::FFMA));
    EXPECT_TRUE(isMemory(Opcode::LDG));
    EXPECT_TRUE(isMemory(Opcode::STL));
    EXPECT_FALSE(isMemory(Opcode::LDC)); // constant bank, not data memory
    EXPECT_TRUE(isLoad(Opcode::LDS));
    EXPECT_TRUE(isStore(Opcode::STS));
    EXPECT_FALSE(isLoad(Opcode::STG));
}

TEST(Isa, MemSpaceOfOpcodes)
{
    EXPECT_EQ(memSpaceOf(Opcode::LDG), MemSpace::Global);
    EXPECT_EQ(memSpaceOf(Opcode::STG), MemSpace::Global);
    EXPECT_EQ(memSpaceOf(Opcode::LDS), MemSpace::Shared);
    EXPECT_EQ(memSpaceOf(Opcode::LDL), MemSpace::Local);
    EXPECT_EQ(memSpaceOf(Opcode::LDC), MemSpace::Constant);
}

TEST(Isa, DisassemblyShowsHints)
{
    Instruction inst;
    inst.op = Opcode::IADD;
    inst.dst = 4;
    inst.src[0] = Operand::reg(2);
    inst.src[1] = Operand::imm(0x10);
    inst.hints = {true, 0};
    const std::string s = inst.toString();
    EXPECT_NE(s.find("IADD"), std::string::npos);
    EXPECT_NE(s.find("[A,S=0]"), std::string::npos);

    // A check the range analysis proved redundant carries the E bit.
    inst.hints = {true, 1, true};
    EXPECT_NE(inst.toString().find("[A,S=1,E]"), std::string::npos);
}

TEST(Isa, ValidateRejectsBadBranch)
{
    Program prog;
    prog.name = "bad";
    Instruction bra;
    bra.op = Opcode::BRA;
    bra.branch_target = 99;
    prog.code.push_back(bra);
    Instruction exit;
    exit.op = Opcode::EXIT;
    prog.code.push_back(exit);
    EXPECT_THROW(prog.validate(), FatalError);
}

TEST(Isa, ValidateRejectsHintOnFpOp)
{
    Program prog;
    prog.name = "bad_hint";
    Instruction f;
    f.op = Opcode::FADD;
    f.dst = 1;
    f.src[0] = Operand::reg(2);
    f.src[1] = Operand::reg(3);
    f.hints = {true, 0};
    prog.code.push_back(f);
    Instruction exit;
    exit.op = Opcode::EXIT;
    prog.code.push_back(exit);
    EXPECT_THROW(prog.validate(), FatalError);
}

TEST(Isa, ValidateRequiresTrailingExit)
{
    Program prog;
    prog.name = "no_exit";
    Instruction nop;
    nop.op = Opcode::NOP;
    prog.code.push_back(nop);
    EXPECT_THROW(prog.validate(), FatalError);
}

TEST(Microcode, HintBitsLandAtPaperPositions)
{
    Instruction inst;
    inst.op = Opcode::IADD;
    inst.dst = 4;
    inst.src[0] = Operand::reg(2);
    inst.src[1] = Operand::reg(3);
    inst.hints = {true, 1};

    const Microcode mc = packMicrocode(inst);
    EXPECT_EQ((mc.lo >> 28) & 1, 1u) << "A bit must be bit 28";
    EXPECT_EQ((mc.lo >> 27) & 1, 1u) << "S bit must be bit 27";
    EXPECT_TRUE(mc.activationBit());
    EXPECT_TRUE(mc.selectionBit());

    inst.hints = {false, 0};
    const Microcode mc2 = packMicrocode(inst);
    EXPECT_EQ((mc2.lo >> 28) & 1, 0u);
    EXPECT_EQ((mc2.lo >> 27) & 1, 0u);
}

TEST(Microcode, RoundTripArithmetic)
{
    Instruction inst;
    inst.op = Opcode::IMAD;
    inst.dst = 7;
    inst.src[0] = Operand::reg(1);
    inst.src[1] = Operand::reg(2);
    inst.src[2] = Operand::reg(3);
    inst.hints = {true, 0};

    const Instruction back = unpackMicrocode(packMicrocode(inst));
    EXPECT_EQ(back.op, inst.op);
    EXPECT_EQ(back.dst, inst.dst);
    for (unsigned i = 0; i < kMaxSrcs; ++i) {
        EXPECT_EQ(back.src[i].kind, inst.src[i].kind);
        EXPECT_EQ(back.src[i].value, inst.src[i].value);
    }
    EXPECT_EQ(back.hints.active, inst.hints.active);
    EXPECT_EQ(back.hints.pointer_operand, inst.hints.pointer_operand);
}

TEST(Microcode, RoundTripMemoryWithOffset)
{
    Instruction inst;
    inst.op = Opcode::LDG;
    inst.dst = 8;
    inst.src[0] = Operand::reg(4);
    inst.imm_offset = -0x40;
    inst.width = 8;

    const Instruction back = unpackMicrocode(packMicrocode(inst));
    EXPECT_EQ(back.op, Opcode::LDG);
    EXPECT_EQ(back.imm_offset, -0x40);
    EXPECT_EQ(back.width, 8);
}

TEST(Microcode, RoundTripImmediateAndCBank)
{
    Instruction inst;
    inst.op = Opcode::MOV;
    inst.dst = 1;
    inst.src[0] = Operand::cbank(0x28); // Fig. 7's stack-pointer load
    const Instruction back = unpackMicrocode(packMicrocode(inst));
    EXPECT_EQ(back.src[0].kind, Operand::Kind::CBank);
    EXPECT_EQ(back.src[0].value, 0x28u);

    Instruction imm;
    imm.op = Opcode::IADD;
    imm.dst = 2;
    imm.src[0] = Operand::reg(2);
    imm.src[1] = Operand::imm(0xDEADBEEF);
    const Instruction back2 = unpackMicrocode(packMicrocode(imm));
    EXPECT_EQ(back2.src[1].value, 0xDEADBEEFu);
}

TEST(Microcode, RoundTripBranchAndGuard)
{
    Instruction inst;
    inst.op = Opcode::BRA;
    inst.branch_target = 1234;
    inst.guard_pred = 3;
    inst.guard_neg = true;
    const Instruction back = unpackMicrocode(packMicrocode(inst));
    EXPECT_EQ(back.branch_target, 1234);
    EXPECT_EQ(back.guard_pred, 3);
    EXPECT_TRUE(back.guard_neg);
}

TEST(Microcode, RoundTripSpecialReg)
{
    Instruction inst;
    inst.op = Opcode::S2R;
    inst.dst = 0;
    inst.src[0] = Operand::special(SpecialReg::CtaIdX);
    const Instruction back = unpackMicrocode(packMicrocode(inst));
    EXPECT_EQ(back.src[0].kind, Operand::Kind::Special);
    EXPECT_EQ(SpecialReg(back.src[0].value), SpecialReg::CtaIdX);
}

TEST(Microcode, RejectsUnencodable)
{
    // Two wide immediates cannot share the single 32-bit slot.
    Instruction inst;
    inst.op = Opcode::IMAD;
    inst.dst = 1;
    inst.src[0] = Operand::reg(1);
    inst.src[1] = Operand::imm(0x100000);
    inst.src[2] = Operand::imm(0x200000);
    EXPECT_FALSE(isEncodable(inst));
    EXPECT_THROW(packMicrocode(inst), FatalError);

    // 64-bit immediates do not fit either.
    Instruction wide;
    wide.op = Opcode::MOV;
    wide.dst = 1;
    wide.src[0] = Operand::imm(0x1'0000'0000ull);
    EXPECT_FALSE(isEncodable(wide));
}

TEST(Microcode, ToStringMarksHints)
{
    Instruction inst;
    inst.op = Opcode::IADD;
    inst.dst = 1;
    inst.src[0] = Operand::reg(1);
    inst.src[1] = Operand::imm(4);
    inst.hints = {true, 0};
    const std::string s = microcodeToString(packMicrocode(inst));
    EXPECT_NE(s.find("A=1"), std::string::npos);
    EXPECT_NE(s.find("bit 28"), std::string::npos);
}

// Round-trip every integer opcode through the codec.
class MicrocodeOpcodes : public ::testing::TestWithParam<Opcode>
{
};

TEST_P(MicrocodeOpcodes, RoundTripsOpcode)
{
    Instruction inst;
    inst.op = GetParam();
    inst.dst = 5;
    inst.src[0] = Operand::reg(6);
    if (inst.op == Opcode::BRA) {
        inst.src[0] = Operand::none();
        inst.branch_target = 3;
    }
    const Instruction back = unpackMicrocode(packMicrocode(inst));
    EXPECT_EQ(back.op, inst.op);
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, MicrocodeOpcodes,
    ::testing::Values(Opcode::IADD, Opcode::IADD3, Opcode::ISUB, Opcode::IMUL,
                      Opcode::IMAD, Opcode::SHL, Opcode::SHR, Opcode::LOP_AND,
                      Opcode::LOP_XOR, Opcode::MOV, Opcode::ISETP,
                      Opcode::FADD, Opcode::FMUL, Opcode::FFMA, Opcode::LDG,
                      Opcode::STG, Opcode::LDS, Opcode::STS, Opcode::LDL,
                      Opcode::STL, Opcode::LDC, Opcode::BRA, Opcode::BAR,
                      Opcode::EXIT, Opcode::S2R, Opcode::MALLOC, Opcode::FREE,
                      Opcode::NOP));

} // namespace
} // namespace lmi
