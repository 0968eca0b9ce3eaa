#include "arch/isa.hpp"

#include <sstream>

#include "common/logging.hpp"

namespace lmi {

const char*
memSpaceName(MemSpace space)
{
    switch (space) {
      case MemSpace::Global:   return "global";
      case MemSpace::Shared:   return "shared";
      case MemSpace::Local:    return "local";
      case MemSpace::Constant: return "constant";
    }
    return "unknown";
}

const char*
memScopeName(MemScope scope)
{
    switch (scope) {
      case MemScope::Cta: return "cta";
      case MemScope::Gpu: return "gpu";
      case MemScope::Sys: return "sys";
    }
    return "unknown";
}

const char*
memOrderName(MemOrder order)
{
    switch (order) {
      case MemOrder::Relaxed: return "relaxed";
      case MemOrder::Acquire: return "acquire";
      case MemOrder::Release: return "release";
      case MemOrder::AcqRel:  return "acqrel";
    }
    return "unknown";
}

const char*
atomicOpName(AtomicOp op)
{
    switch (op) {
      case AtomicOp::Add:  return "add";
      case AtomicOp::Exch: return "exch";
      case AtomicOp::Min:  return "min";
      case AtomicOp::Max:  return "max";
      case AtomicOp::And:  return "and";
      case AtomicOp::Or:   return "or";
      case AtomicOp::Xor:  return "xor";
      case AtomicOp::Cas:  return "cas";
      case AtomicOp::Ld:   return "ld";
      case AtomicOp::St:   return "st";
    }
    return "unknown";
}

const char*
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::IADD:    return "IADD";
      case Opcode::IADD3:   return "IADD3";
      case Opcode::ISUB:    return "ISUB";
      case Opcode::IMUL:    return "IMUL";
      case Opcode::IMAD:    return "IMAD";
      case Opcode::IMNMX:   return "IMNMX";
      case Opcode::SHL:     return "SHL";
      case Opcode::SHR:     return "SHR";
      case Opcode::LOP_AND: return "LOP.AND";
      case Opcode::LOP_OR:  return "LOP.OR";
      case Opcode::LOP_XOR: return "LOP.XOR";
      case Opcode::MOV:     return "MOV";
      case Opcode::ISETP:   return "ISETP";
      case Opcode::FADD:    return "FADD";
      case Opcode::FMUL:    return "FMUL";
      case Opcode::FFMA:    return "FFMA";
      case Opcode::MUFU:    return "MUFU";
      case Opcode::LDG:     return "LDG";
      case Opcode::STG:     return "STG";
      case Opcode::LDS:     return "LDS";
      case Opcode::STS:     return "STS";
      case Opcode::LDL:     return "LDL";
      case Opcode::STL:     return "STL";
      case Opcode::LDC:     return "LDC";
      case Opcode::ATOMG:   return "ATOMG";
      case Opcode::ATOMS:   return "ATOMS";
      case Opcode::CASG:    return "CASG";
      case Opcode::CASS:    return "CASS";
      case Opcode::MEMBAR:  return "MEMBAR";
      case Opcode::BRA:     return "BRA";
      case Opcode::BAR:     return "BAR.SYNC";
      case Opcode::EXIT:    return "EXIT";
      case Opcode::RET:     return "RET";
      case Opcode::TRAP:    return "BPT.TRAP";
      case Opcode::S2R:     return "S2R";
      case Opcode::MALLOC:  return "MALLOC";
      case Opcode::FREE:    return "FREE";
      case Opcode::NOP:     return "NOP";
    }
    return "???";
}

bool
isIntAlu(Opcode op)
{
    switch (op) {
      case Opcode::IADD:
      case Opcode::IADD3:
      case Opcode::ISUB:
      case Opcode::IMUL:
      case Opcode::IMAD:
      case Opcode::IMNMX:
      case Opcode::SHL:
      case Opcode::SHR:
      case Opcode::LOP_AND:
      case Opcode::LOP_OR:
      case Opcode::LOP_XOR:
      case Opcode::MOV:
      case Opcode::ISETP:
      case Opcode::S2R:
        return true;
      default:
        return false;
    }
}

bool
isFpAlu(Opcode op)
{
    switch (op) {
      case Opcode::FADD:
      case Opcode::FMUL:
      case Opcode::FFMA:
      case Opcode::MUFU:
        return true;
      default:
        return false;
    }
}

bool
isMemory(Opcode op)
{
    switch (op) {
      case Opcode::LDG:
      case Opcode::STG:
      case Opcode::LDS:
      case Opcode::STS:
      case Opcode::LDL:
      case Opcode::STL:
      case Opcode::ATOMG:
      case Opcode::ATOMS:
      case Opcode::CASG:
      case Opcode::CASS:
        return true;
      default:
        return false;
    }
}

bool
isAtomic(Opcode op)
{
    return op == Opcode::ATOMG || op == Opcode::ATOMS ||
           op == Opcode::CASG || op == Opcode::CASS;
}

bool
isAtomicFamily(Opcode op)
{
    return isAtomic(op) || op == Opcode::MEMBAR;
}

bool
isLoad(Opcode op)
{
    return op == Opcode::LDG || op == Opcode::LDS || op == Opcode::LDL ||
           op == Opcode::LDC;
}

bool
isStore(Opcode op)
{
    return op == Opcode::STG || op == Opcode::STS || op == Opcode::STL;
}

MemSpace
memSpaceOf(Opcode op)
{
    switch (op) {
      case Opcode::LDG:
      case Opcode::STG:
        return MemSpace::Global;
      case Opcode::ATOMG:
      case Opcode::CASG:
        return MemSpace::Global;
      case Opcode::LDS:
      case Opcode::STS:
      case Opcode::ATOMS:
      case Opcode::CASS:
        return MemSpace::Shared;
      case Opcode::LDL:
      case Opcode::STL:
        return MemSpace::Local;
      case Opcode::LDC:
        return MemSpace::Constant;
      default:
        lmi_panic("memSpaceOf(%s): not a memory opcode", opcodeName(op));
    }
}

const char*
cmpOpName(CmpOp op)
{
    switch (op) {
      case CmpOp::EQ: return "EQ";
      case CmpOp::NE: return "NE";
      case CmpOp::LT: return "LT";
      case CmpOp::LE: return "LE";
      case CmpOp::GT: return "GT";
      case CmpOp::GE: return "GE";
    }
    return "??";
}

const char*
specialRegName(SpecialReg reg)
{
    switch (reg) {
      case SpecialReg::TidX:      return "SR_TID.X";
      case SpecialReg::TidY:      return "SR_TID.Y";
      case SpecialReg::CtaIdX:    return "SR_CTAID.X";
      case SpecialReg::CtaIdY:    return "SR_CTAID.Y";
      case SpecialReg::NTidX:     return "SR_NTID.X";
      case SpecialReg::NTidY:     return "SR_NTID.Y";
      case SpecialReg::NCtaIdX:   return "SR_NCTAID.X";
      case SpecialReg::LaneId:    return "SR_LANEID";
      case SpecialReg::WarpId:    return "SR_WARPID";
      case SpecialReg::SmId:      return "SR_SMID";
      case SpecialReg::GlobalTid: return "SR_GTID";
    }
    return "SR_???";
}

namespace {

std::string
operandToString(const Operand& o)
{
    std::ostringstream s;
    switch (o.kind) {
      case Operand::Kind::None:
        s << "-";
        break;
      case Operand::Kind::Reg:
        s << "R" << o.value;
        break;
      case Operand::Kind::Imm:
        s << "0x" << std::hex << o.value;
        break;
      case Operand::Kind::CBank:
        s << "c[0x0][0x" << std::hex << o.value << "]";
        break;
      case Operand::Kind::Special:
        s << specialRegName(SpecialReg(o.value));
        break;
    }
    return s.str();
}

} // namespace

std::string
Instruction::toString() const
{
    std::ostringstream s;
    if (guard_pred != kNoPred)
        s << "@" << (guard_neg ? "!" : "") << "P" << guard_pred << " ";
    s << opcodeName(op);
    if (op == Opcode::ISETP)
        s << "." << cmpOpName(cmp);
    if (hints.active)
        s << " [A,S=" << hints.pointer_operand
          << (hints.elide_check ? ",E" : "") << "]";

    if (isAtomicFamily(op)) {
        // ATOMG.add.acqrel.gpu R4, [R2], R5 /*4B*/ ; MEMBAR.release.cta
        if (op == Opcode::ATOMG || op == Opcode::ATOMS)
            s << "." << atomicOpName(aop);
        s << "." << memOrderName(order) << "." << memScopeName(scope);
        if (op == Opcode::MEMBAR)
            return s.str();
        bool lead = true;
        if (dst >= 0) {
            s << " R" << dst;
            lead = false;
        }
        s << (lead ? " [" : ", [") << operandToString(src[0]);
        if (imm_offset != 0)
            s << (imm_offset > 0 ? " + " : " - ") << "0x" << std::hex
              << (imm_offset > 0 ? imm_offset : -imm_offset) << std::dec;
        s << "]";
        for (unsigned i = 1; i < kMaxSrcs; ++i)
            if (!src[i].isNone())
                s << ", " << operandToString(src[i]);
        s << " /*" << int(width) << "B*/";
        return s.str();
    }

    if (isMemory(op) || op == Opcode::LDC) {
        // LD/ST syntax: LDG R4, [R2 + 0x10]
        if (isLoad(op))
            s << " R" << dst << ", ";
        s << "[" << operandToString(src[0]);
        if (imm_offset != 0)
            s << (imm_offset > 0 ? " + " : " - ") << "0x" << std::hex
              << (imm_offset > 0 ? imm_offset : -imm_offset) << std::dec;
        s << "]";
        if (isStore(op))
            s << ", " << operandToString(src[1]);
        s << " /*" << int(width) << "B*/";
        return s.str();
    }

    if (op == Opcode::BRA) {
        s << " -> " << branch_target;
        return s.str();
    }

    bool first = true;
    if (dst >= 0) {
        s << (op == Opcode::ISETP ? " P" : " R") << dst;
        first = false;
    }
    for (const auto& o : src) {
        if (o.isNone())
            continue;
        s << (first ? " " : ", ") << operandToString(o);
        first = false;
    }
    return s.str();
}

std::string
Program::disassemble() const
{
    std::ostringstream s;
    s << "// kernel " << name << "  frame=" << frame_bytes
      << "B shared=" << static_shared_bytes << "B params=" << num_params
      << "\n";
    for (size_t i = 0; i < code.size(); ++i)
        s << "  /*" << i << "*/ " << code[i].toString() << " ;\n";
    return s.str();
}

void
Program::validate() const
{
    for (size_t i = 0; i < code.size(); ++i) {
        const Instruction& inst = code[i];
        if (inst.op == Opcode::BRA) {
            if (inst.branch_target < 0 ||
                size_t(inst.branch_target) >= code.size()) {
                lmi_fatal("%s[%zu]: branch target %d out of range",
                          name.c_str(), i, inst.branch_target);
            }
        }
        if (inst.dst >= int(kNumRegs))
            lmi_fatal("%s[%zu]: destination register R%d out of range",
                      name.c_str(), i, inst.dst);
        for (const auto& o : inst.src) {
            if (o.isReg() && o.value >= kNumRegs)
                lmi_fatal("%s[%zu]: source register R%llu out of range",
                          name.c_str(), i,
                          static_cast<unsigned long long>(o.value));
        }
        if (inst.hints.active && !isIntAlu(inst.op))
            lmi_fatal("%s[%zu]: hint bits on non-integer-ALU op %s",
                      name.c_str(), i, opcodeName(inst.op));
    }
    if (code.empty() || code.back().op != Opcode::EXIT)
        lmi_fatal("%s: kernel must end with EXIT", name.c_str());
}

} // namespace lmi
