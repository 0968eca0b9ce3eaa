#include "ir/ir.hpp"

#include <cstdio>
#include <sstream>

namespace lmi::ir {

unsigned
Type::accessWidth() const
{
    switch (kind) {
      case Kind::I32:
      case Kind::F32:
        return 4;
      case Kind::I64:
      case Kind::Ptr:
        return 8;
      case Kind::Void:
        return 0;
    }
    return 0;
}

std::string
Type::toString() const
{
    switch (kind) {
      case Kind::Void: return "void";
      case Kind::I32:  return "i32";
      case Kind::I64:  return "i64";
      case Kind::F32:  return "f32";
      case Kind::Ptr: {
        std::ostringstream s;
        s << "ptr<" << elem_size << "," << memSpaceName(space) << ">";
        return s.str();
      }
    }
    return "?";
}

const char*
irOpName(IrOp op)
{
    switch (op) {
      case IrOp::ConstInt:   return "const";
      case IrOp::ConstFloat: return "fconst";
      case IrOp::Param:      return "param";
      case IrOp::Alloca:     return "alloca";
      case IrOp::SharedRef:  return "sharedref";
      case IrOp::DynSharedRef: return "dynsharedref";
      case IrOp::Gep:        return "gep";
      case IrOp::PtrAddByte: return "ptraddbyte";
      case IrOp::FieldGep:   return "fieldgep";
      case IrOp::Load:       return "load";
      case IrOp::Store:      return "store";
      case IrOp::AtomicRmw:  return "atomicrmw";
      case IrOp::AtomicCas:  return "atomiccas";
      case IrOp::AtomicLoad: return "atomicld";
      case IrOp::AtomicStore:return "atomicst";
      case IrOp::Fence:      return "fence";
      case IrOp::IAdd:       return "iadd";
      case IrOp::ISub:       return "isub";
      case IrOp::IMul:       return "imul";
      case IrOp::IMin:       return "imin";
      case IrOp::IShl:       return "ishl";
      case IrOp::IShr:       return "ishr";
      case IrOp::IAnd:       return "iand";
      case IrOp::IOr:        return "ior";
      case IrOp::IXor:       return "ixor";
      case IrOp::FAdd:       return "fadd";
      case IrOp::FMul:       return "fmul";
      case IrOp::FFma:       return "ffma";
      case IrOp::FRcp:       return "frcp";
      case IrOp::FBits:      return "fbits";
      case IrOp::ICmp:       return "icmp";
      case IrOp::Br:         return "br";
      case IrOp::Jump:       return "jump";
      case IrOp::Ret:        return "ret";
      case IrOp::Phi:        return "phi";
      case IrOp::Barrier:    return "barrier";
      case IrOp::Malloc:     return "malloc";
      case IrOp::Free:       return "free";
      case IrOp::IntToPtr:   return "inttoptr";
      case IrOp::PtrToInt:   return "ptrtoint";
      case IrOp::Call:       return "call";
      case IrOp::ScopeEnd:   return "scope_end";
      case IrOp::Tid:        return "tid";
      case IrOp::CtaId:      return "ctaid";
      case IrOp::NTid:       return "ntid";
      case IrOp::NCtaId:     return "nctaid";
      case IrOp::GlobalTid:  return "gtid";
    }
    return "?";
}

bool
isIntArith(IrOp op)
{
    switch (op) {
      case IrOp::IAdd:
      case IrOp::ISub:
      case IrOp::IMul:
      case IrOp::IMin:
      case IrOp::IShl:
      case IrOp::IShr:
      case IrOp::IAnd:
      case IrOp::IOr:
      case IrOp::IXor:
        return true;
      default:
        return false;
    }
}

bool
isTerminator(IrOp op)
{
    return op == IrOp::Br || op == IrOp::Jump || op == IrOp::Ret;
}

bool
isAtomicAccess(IrOp op)
{
    return op == IrOp::AtomicRmw || op == IrOp::AtomicCas ||
           op == IrOp::AtomicLoad || op == IrOp::AtomicStore;
}

std::string
IrFunction::toString() const
{
    std::ostringstream s;
    s << "define " << ret_type.toString() << " @" << name << "(";
    for (size_t i = 0; i < params.size(); ++i) {
        if (i)
            s << ", ";
        s << params[i].type.toString() << " %" << params[i].name;
    }
    s << ") {\n";
    for (const auto& [buf, size] : shared_buffers)
        s << "  shared @" << buf << " [" << size << " x i8]\n";
    for (BlockId b = 0; b < blocks.size(); ++b) {
        s << blocks[b].label << ":\n";
        for (ValueId v : blocks[b].insts) {
            const IrInst& in = inst(v);
            s << "  ";
            if (!in.type.isVoid())
                s << "%" << v << " = ";
            s << irOpName(in.op);
            if (in.op == IrOp::ICmp)
                s << "." << cmpOpName(in.cmp);
            if (in.op == IrOp::AtomicRmw)
                s << "." << atomicOpName(in.aop);
            if (isAtomicAccess(in.op) || in.op == IrOp::Fence)
                s << "." << memOrderName(in.order) << "."
                  << memScopeName(in.scope);
            if (in.op == IrOp::ConstInt || in.op == IrOp::Alloca ||
                in.op == IrOp::Param) {
                s << " " << in.imm;
            }
            if (in.op == IrOp::FieldGep)
                s << " off=" << in.imm << " size=" << in.aux;
            if (in.op == IrOp::ConstFloat) {
                // Max precision so the text form round-trips exactly.
                char buf[40];
                std::snprintf(buf, sizeof(buf), " %.17g", in.fimm);
                s << buf;
            }
            if (!in.name.empty())
                s << " @" << in.name;
            for (size_t i = 0; i < in.ops.size(); ++i) {
                s << (i ? ", " : " ") << "%" << in.ops[i];
                if (in.op == IrOp::Phi)
                    s << " [" << blocks[in.phi_blocks[i]].label << "]";
            }
            if (in.op == IrOp::Br)
                s << " ? " << blocks[in.tbb].label << " : "
                  << blocks[in.fbb].label;
            if (in.op == IrOp::Jump)
                s << " -> " << blocks[in.tbb].label;
            if (!in.type.isVoid())
                s << " : " << in.type.toString();
            s << "\n";
        }
    }
    s << "}\n";
    return s.str();
}

IrFunction*
IrModule::find(const std::string& fname)
{
    for (auto& f : functions)
        if (f.name == fname)
            return &f;
    return nullptr;
}

const IrFunction*
IrModule::find(const std::string& fname) const
{
    for (const auto& f : functions)
        if (f.name == fname)
            return &f;
    return nullptr;
}

} // namespace lmi::ir
