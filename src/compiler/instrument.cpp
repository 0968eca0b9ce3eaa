#include "compiler/instrument.hpp"

#include <vector>

#include "common/logging.hpp"

namespace lmi {

namespace {

/** Scratch registers reserved for instrumentation sequences. */
constexpr unsigned kDbiReg0 = 250;
constexpr unsigned kDbiReg1 = 251;
constexpr unsigned kDbiReg2 = 252;

/** Append the synthetic check routine for one site. */
void
appendCheckSequence(std::vector<Instruction>& out, const DbiOptions& opts,
                    unsigned addr_reg)
{
    Instruction seed;
    seed.op = Opcode::MOV;
    seed.dst = int(kDbiReg0);
    seed.src[0] = Operand::reg(addr_reg);
    out.push_back(seed);

    // Metadata lookups: tripwire tables live in global memory; the
    // address is derived from the checked address so different sites
    // touch different lines.
    for (unsigned m = 0; m < opts.check_mem_loads; ++m) {
        Instruction shr;
        shr.op = Opcode::SHR;
        shr.dst = int(kDbiReg1);
        shr.src[0] = Operand::reg(kDbiReg0);
        shr.src[1] = Operand::imm(6 + m);
        out.push_back(shr);

        Instruction ld;
        ld.op = Opcode::LDG;
        ld.dst = int(kDbiReg2);
        ld.src[0] = Operand::reg(kDbiReg1);
        ld.width = 4;
        out.push_back(ld);
    }

    // Trampoline + check arithmetic: register save/restore traffic and
    // the check computation itself, modeled as ALU work on the reserved
    // registers (every instruction depends on the previous one, as the
    // serialized call does).
    for (unsigned a = 0; a < opts.check_alu_instrs; ++a) {
        Instruction alu;
        alu.op = (a % 3 == 0) ? Opcode::LOP_XOR
                 : (a % 3 == 1) ? Opcode::IADD
                                : Opcode::SHR;
        alu.dst = int(kDbiReg1);
        alu.src[0] = Operand::reg(kDbiReg1);
        alu.src[1] = (a % 3 == 2) ? Operand::imm(1)
                                  : Operand::reg(kDbiReg0);
        out.push_back(alu);
    }
}

/** Address register of a memory instruction. */
unsigned
addrRegOf(const Instruction& inst)
{
    return inst.src[0].isReg() ? unsigned(inst.src[0].value) : kDbiReg0;
}

/** Register checked after a pointer op (its destination). */
unsigned
resultRegOf(const Instruction& inst)
{
    return inst.dst >= 0 ? unsigned(inst.dst) : kDbiReg0;
}

} // namespace

Program
instrumentProgram(const Program& prog, const DbiOptions& opts,
                  DbiReport* report)
{
    Program out;
    out.name = prog.name + ".dbi";
    out.frame_slots = prog.frame_slots;
    out.shared_slots = prog.shared_slots;
    out.frame_bytes = prog.frame_bytes;
    out.static_shared_bytes = prog.static_shared_bytes;
    out.num_params = prog.num_params;

    DbiReport rep;

    // First pass: emit, remembering old->new index mapping.
    std::vector<int> new_index(prog.code.size() + 1, 0);
    for (size_t i = 0; i < prog.code.size(); ++i) {
        new_index[i] = int(out.code.size());
        const Instruction& inst = prog.code[i];

        const bool is_mem = isMemory(inst.op);
        const bool is_ptr_op =
            inst.hints.active ||
            (opts.instrument_all_int_ops && isIntAlu(inst.op) &&
             inst.op != Opcode::ISETP && inst.op != Opcode::S2R);

        // memcheck-style: check the address BEFORE the access.
        if (is_mem) {
            appendCheckSequence(out.code, opts, addrRegOf(inst));
            ++rep.sites_ldst;
        }

        out.code.push_back(inst);

        // LMI-by-DBI: check the produced pointer AFTER the operation.
        if (opts.instrument_pointer_ops && is_ptr_op && !is_mem) {
            appendCheckSequence(out.code, opts, resultRegOf(inst));
            ++rep.sites_pointer;
        }
    }
    new_index[prog.code.size()] = int(out.code.size());

    // Second pass: remap branch targets. A branch must land on the
    // (possibly instrumented) first instruction of its old target.
    for (auto& inst : out.code) {
        if (inst.op == Opcode::BRA) {
            if (inst.branch_target < 0 ||
                size_t(inst.branch_target) >= new_index.size())
                lmi_fatal("%s: branch target %d unmappable",
                          prog.name.c_str(), inst.branch_target);
            inst.branch_target = new_index[inst.branch_target];
        }
    }

    rep.injected_instructions = out.code.size() - prog.code.size();
    if (report)
        *report = rep;

    out.validate();
    return out;
}

} // namespace lmi
