/**
 * @file
 * Builders for hand-written ISA test programs, for tests that need
 * what the SSA IR cannot express: a read before a write, or an exact
 * instruction sequence for the engine to run.
 */

#pragma once

#include <string>
#include <vector>

#include "sim/device.hpp"

namespace lmi::isa_test {

inline Instruction
ins(Opcode op, int dst, Operand a = {}, Operand b = {}, Operand c = {})
{
    Instruction i;
    i.op = op;
    i.dst = dst;
    i.src[0] = a;
    i.src[1] = b;
    i.src[2] = c;
    return i;
}

inline Instruction
isetp(int pred, CmpOp cmp, Operand a, Operand b)
{
    Instruction i = ins(Opcode::ISETP, pred, a, b);
    i.cmp = cmp;
    return i;
}

inline Instruction
bra(int target, int pred = kNoPred, bool neg = false)
{
    Instruction i = ins(Opcode::BRA, -1);
    i.branch_target = target;
    i.guard_pred = pred;
    i.guard_neg = neg;
    return i;
}

inline Instruction
movImm(unsigned dst, uint64_t v)
{
    return ins(Opcode::MOV, int(dst), Operand::imm(v));
}

/** 8-byte global store of @p value_reg to [@p addr_reg + @p offset]. */
inline Instruction
stg(unsigned addr_reg, unsigned value_reg, int64_t offset)
{
    Instruction i = ins(Opcode::STG, -1, Operand::reg(addr_reg),
                        Operand::reg(value_reg));
    i.width = 8;
    i.imm_offset = offset;
    return i;
}

/** 8-byte global load of [@p addr_reg + @p offset] into @p dst. */
inline Instruction
ldg(unsigned dst, unsigned addr_reg, int64_t offset)
{
    Instruction i = ins(Opcode::LDG, int(dst), Operand::reg(addr_reg));
    i.width = 8;
    i.imm_offset = offset;
    return i;
}

/** A launchable kernel of @p code taking one parameter. */
inline CompiledKernel
kernel(std::string name, std::vector<Instruction> code)
{
    CompiledKernel k;
    k.program.name = std::move(name);
    k.program.code = std::move(code);
    k.program.num_params = 1;
    return k;
}

} // namespace lmi::isa_test
