#include "ir/builder.hpp"

#include "common/logging.hpp"

namespace lmi::ir {

IrFunction
IrBuilder::makeKernel(const std::string& name, std::vector<IrParam> params)
{
    IrFunction f;
    f.name = name;
    f.params = std::move(params);
    return f;
}

BlockId
IrBuilder::block(const std::string& label)
{
    f_.blocks.push_back(IrBlock{label, {}});
    return BlockId(f_.blocks.size() - 1);
}

ValueId
IrBuilder::emit(IrInst inst)
{
    if (f_.blocks.empty())
        lmi_fatal("%s: emit before any block exists", f_.name.c_str());
    f_.values.push_back(std::move(inst));
    const ValueId v = ValueId(f_.values.size() - 1);
    f_.blocks[cur_].insts.push_back(v);
    return v;
}

ValueId
IrBuilder::constInt(int64_t v, Type t)
{
    IrInst in;
    in.op = IrOp::ConstInt;
    in.type = t;
    in.imm = v;
    return emit(in);
}

ValueId
IrBuilder::constFloat(double v)
{
    IrInst in;
    in.op = IrOp::ConstFloat;
    in.type = Type::f32();
    in.fimm = v;
    return emit(in);
}

ValueId
IrBuilder::param(unsigned index)
{
    if (index >= f_.params.size())
        lmi_fatal("%s: param index %u out of range", f_.name.c_str(), index);
    IrInst in;
    in.op = IrOp::Param;
    in.type = f_.params[index].type;
    in.imm = index;
    return emit(in);
}

ValueId
IrBuilder::alloca_(uint64_t bytes, uint32_t elem_size)
{
    IrInst in;
    in.op = IrOp::Alloca;
    in.type = Type::ptr(elem_size, MemSpace::Local);
    in.imm = int64_t(bytes);
    return emit(in);
}

ValueId
IrBuilder::sharedBuffer(const std::string& name, uint64_t bytes,
                        uint32_t elem_size)
{
    f_.shared_buffers.emplace_back(name, bytes);
    IrInst in;
    in.op = IrOp::SharedRef;
    in.type = Type::ptr(elem_size, MemSpace::Shared);
    in.name = name;
    return emit(in);
}

ValueId
IrBuilder::dynamicShared(uint32_t elem_size)
{
    IrInst in;
    in.op = IrOp::DynSharedRef;
    in.type = Type::ptr(elem_size, MemSpace::Shared);
    return emit(in);
}

ValueId
IrBuilder::gep(ValueId base, ValueId index)
{
    IrInst in;
    in.op = IrOp::Gep;
    in.type = f_.inst(base).type;
    in.ops = {base, index};
    return emit(in);
}

ValueId
IrBuilder::ptrAddBytes(ValueId base, ValueId byte_off)
{
    IrInst in;
    in.op = IrOp::PtrAddByte;
    in.type = f_.inst(base).type;
    in.ops = {base, byte_off};
    return emit(in);
}

ValueId
IrBuilder::fieldPtr(ValueId base, uint64_t byte_off, uint64_t field_size)
{
    IrInst in;
    in.op = IrOp::FieldGep;
    in.type = f_.inst(base).type;
    in.ops = {base};
    in.imm = int64_t(byte_off);
    in.aux = field_size;
    return emit(in);
}

ValueId
IrBuilder::load(ValueId ptr)
{
    const Type& pt = f_.inst(ptr).type;
    IrInst in;
    in.op = IrOp::Load;
    in.type = pt.elem_size == 8 ? Type::i64()
              : pt.elem_size == 4 ? Type::i32()
                                  : Type::i32();
    in.ops = {ptr};
    return emit(in);
}

void
IrBuilder::store(ValueId ptr, ValueId value)
{
    IrInst in;
    in.op = IrOp::Store;
    in.type = Type::voidTy();
    in.ops = {ptr, value};
    emit(in);
}

namespace {

/** Result type of an atomic read on a pointer: width follows the pointee. */
Type
atomicResultType(const Type& pt)
{
    return pt.elem_size == 8 ? Type::i64() : Type::i32();
}

} // namespace

ValueId
IrBuilder::atomicRmw(AtomicOp aop, ValueId ptr, ValueId value,
                     MemOrder order, MemScope scope)
{
    IrInst in;
    in.op = IrOp::AtomicRmw;
    in.type = atomicResultType(f_.inst(ptr).type);
    in.ops = {ptr, value};
    in.aop = aop;
    in.order = order;
    in.scope = scope;
    return emit(in);
}

ValueId
IrBuilder::atomicCas(ValueId ptr, ValueId expected, ValueId desired,
                     MemOrder order, MemScope scope)
{
    IrInst in;
    in.op = IrOp::AtomicCas;
    in.type = atomicResultType(f_.inst(ptr).type);
    in.ops = {ptr, expected, desired};
    in.order = order;
    in.scope = scope;
    return emit(in);
}

ValueId
IrBuilder::atomicLoad(ValueId ptr, MemOrder order, MemScope scope)
{
    IrInst in;
    in.op = IrOp::AtomicLoad;
    in.type = atomicResultType(f_.inst(ptr).type);
    in.ops = {ptr};
    in.order = order;
    in.scope = scope;
    return emit(in);
}

void
IrBuilder::atomicStore(ValueId ptr, ValueId value, MemOrder order,
                       MemScope scope)
{
    IrInst in;
    in.op = IrOp::AtomicStore;
    in.type = Type::voidTy();
    in.ops = {ptr, value};
    in.order = order;
    in.scope = scope;
    emit(in);
}

void
IrBuilder::fence(MemOrder order, MemScope scope)
{
    IrInst in;
    in.op = IrOp::Fence;
    in.type = Type::voidTy();
    in.order = order;
    in.scope = scope;
    emit(in);
}

namespace {

IrInst
binop(IrOp op, Type t, ValueId a, ValueId b)
{
    IrInst in;
    in.op = op;
    in.type = t;
    in.ops = {a, b};
    return in;
}

} // namespace

ValueId IrBuilder::iadd(ValueId a, ValueId b)
{
    // Adding an integer to a pointer-typed value keeps the pointer type,
    // matching LLVM's treatment of ptr-add sequences after lowering.
    const Type t = f_.inst(a).type.isPtr() ? f_.inst(a).type : Type::i64();
    return emit(binop(IrOp::IAdd, t, a, b));
}
ValueId IrBuilder::isub(ValueId a, ValueId b)
{
    const Type t = f_.inst(a).type.isPtr() ? f_.inst(a).type : Type::i64();
    return emit(binop(IrOp::ISub, t, a, b));
}
ValueId IrBuilder::imul(ValueId a, ValueId b)
{ return emit(binop(IrOp::IMul, Type::i64(), a, b)); }
ValueId IrBuilder::ishl(ValueId a, ValueId b)
{ return emit(binop(IrOp::IShl, Type::i64(), a, b)); }
ValueId IrBuilder::ishr(ValueId a, ValueId b)
{ return emit(binop(IrOp::IShr, Type::i64(), a, b)); }
ValueId IrBuilder::iand(ValueId a, ValueId b)
{ return emit(binop(IrOp::IAnd, Type::i64(), a, b)); }
ValueId IrBuilder::ior(ValueId a, ValueId b)
{ return emit(binop(IrOp::IOr, Type::i64(), a, b)); }
ValueId IrBuilder::ixor(ValueId a, ValueId b)
{ return emit(binop(IrOp::IXor, Type::i64(), a, b)); }

ValueId
IrBuilder::ffma(ValueId a, ValueId b, ValueId c)
{
    IrInst in;
    in.op = IrOp::FFma;
    in.type = Type::f32();
    in.ops = {a, b, c};
    return emit(in);
}

ValueId
IrBuilder::fbits(ValueId a)
{
    IrInst in;
    in.op = IrOp::FBits;
    in.type = Type::i64();
    in.ops = {a};
    return emit(in);
}

ValueId
IrBuilder::icmp(CmpOp cmp, ValueId a, ValueId b)
{
    IrInst in = binop(IrOp::ICmp, Type::i32(), a, b);
    in.cmp = cmp;
    return emit(in);
}

void
IrBuilder::br(ValueId cond, BlockId then_bb, BlockId else_bb)
{
    IrInst in;
    in.op = IrOp::Br;
    in.type = Type::voidTy();
    in.ops = {cond};
    in.tbb = then_bb;
    in.fbb = else_bb;
    emit(in);
}

void
IrBuilder::jump(BlockId bb)
{
    IrInst in;
    in.op = IrOp::Jump;
    in.type = Type::voidTy();
    in.tbb = bb;
    emit(in);
}

void
IrBuilder::ret()
{
    IrInst in;
    in.op = IrOp::Ret;
    in.type = Type::voidTy();
    emit(in);
}

void
IrBuilder::retVal(ValueId v)
{
    IrInst in;
    in.op = IrOp::Ret;
    in.type = Type::voidTy();
    in.ops = {v};
    emit(in);
}

ValueId
IrBuilder::phi(Type t, std::vector<std::pair<ValueId, BlockId>> incoming)
{
    IrInst in;
    in.op = IrOp::Phi;
    in.type = t;
    for (auto& [v, b] : incoming) {
        in.ops.push_back(v);
        in.phi_blocks.push_back(b);
    }
    // Phis must lead their block: insert before non-phi instructions.
    f_.values.push_back(std::move(in));
    const ValueId v = ValueId(f_.values.size() - 1);
    auto& insts = f_.blocks[cur_].insts;
    auto it = insts.begin();
    while (it != insts.end() && f_.inst(*it).op == IrOp::Phi)
        ++it;
    insts.insert(it, v);
    return v;
}

void
IrBuilder::barrier()
{
    IrInst in;
    in.op = IrOp::Barrier;
    in.type = Type::voidTy();
    emit(in);
}

ValueId
IrBuilder::malloc_(ValueId bytes, uint32_t elem_size)
{
    IrInst in;
    in.op = IrOp::Malloc;
    in.type = Type::ptr(elem_size, MemSpace::Global);
    in.ops = {bytes};
    return emit(in);
}

void
IrBuilder::free_(ValueId ptr)
{
    IrInst in;
    in.op = IrOp::Free;
    in.type = Type::voidTy();
    in.ops = {ptr};
    emit(in);
}

ValueId
IrBuilder::intToPtr(ValueId v, Type ptr_type)
{
    IrInst in;
    in.op = IrOp::IntToPtr;
    in.type = ptr_type;
    in.ops = {v};
    return emit(in);
}

ValueId
IrBuilder::ptrToInt(ValueId v)
{
    IrInst in;
    in.op = IrOp::PtrToInt;
    in.type = Type::i64();
    in.ops = {v};
    return emit(in);
}

ValueId
IrBuilder::call(const std::string& callee, Type ret, std::vector<ValueId> args)
{
    IrInst in;
    in.op = IrOp::Call;
    in.type = ret;
    in.ops = std::move(args);
    in.name = callee;
    return emit(in);
}

namespace {

IrInst
intrinsic(IrOp op)
{
    IrInst in;
    in.op = op;
    in.type = Type::i64();
    return in;
}

} // namespace

ValueId IrBuilder::tid() { return emit(intrinsic(IrOp::Tid)); }
ValueId IrBuilder::ctaid() { return emit(intrinsic(IrOp::CtaId)); }
ValueId IrBuilder::ntid() { return emit(intrinsic(IrOp::NTid)); }
ValueId IrBuilder::nctaid() { return emit(intrinsic(IrOp::NCtaId)); }
ValueId IrBuilder::gtid() { return emit(intrinsic(IrOp::GlobalTid)); }

} // namespace lmi::ir
