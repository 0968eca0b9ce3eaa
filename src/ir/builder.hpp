/**
 * @file
 * Convenience builder for authoring IR kernels in C++ (the stand-in for
 * writing CUDA and running clang, which is unavailable offline).
 *
 * Usage sketch (a grid-stride vector add):
 * @code
 *   IrFunction f = IrBuilder::makeKernel("vadd",
 *       {{"a", Type::ptr(4)}, {"b", Type::ptr(4)}, {"n", Type::i64()}});
 *   IrBuilder b(f);
 *   auto entry = b.block("entry");
 *   ...
 * @endcode
 */

#pragma once

#include "ir/ir.hpp"

namespace lmi::ir {

/**
 * Insert-point-based IR construction, LLVM IRBuilder style.
 */
class IrBuilder
{
  public:
    explicit IrBuilder(IrFunction& f) : f_(f) {}

    /** Create a kernel shell with the given name and parameters. */
    static IrFunction makeKernel(const std::string& name,
                                 std::vector<IrParam> params);

    /** Append a new basic block and return its id. */
    BlockId block(const std::string& label);

    /** Direct subsequent instructions into @p b. */
    void setInsertPoint(BlockId b) { cur_ = b; }

    /** Current insertion block. */
    BlockId insertPoint() const { return cur_; }

    // --- Values ------------------------------------------------------
    ValueId constInt(int64_t v, Type t = Type::i64());
    ValueId constFloat(double v);
    ValueId param(unsigned index);
    ValueId alloca_(uint64_t bytes, uint32_t elem_size);
    /** Declare a static shared buffer and return a pointer to it. */
    ValueId sharedBuffer(const std::string& name, uint64_t bytes,
                         uint32_t elem_size);
    /** Pointer to the dynamically sized shared pool (extern __shared__). */
    ValueId dynamicShared(uint32_t elem_size);

    // --- Pointer arithmetic -------------------------------------------
    ValueId gep(ValueId base, ValueId index);
    ValueId ptrAddBytes(ValueId base, ValueId byte_off);
    /** &base->field: byte offset and field size are compile-time known
     *  (the sub-object extension narrows the extent to the field). */
    ValueId fieldPtr(ValueId base, uint64_t byte_off, uint64_t field_size);

    // --- Memory --------------------------------------------------------
    ValueId load(ValueId ptr);
    void store(ValueId ptr, ValueId value);

    // --- Scoped atomics ------------------------------------------------
    /** Read-modify-write; yields the old value. */
    ValueId atomicRmw(AtomicOp aop, ValueId ptr, ValueId value,
                      MemOrder order = MemOrder::Relaxed,
                      MemScope scope = MemScope::Gpu);
    /** Compare-and-swap; yields the old value. */
    ValueId atomicCas(ValueId ptr, ValueId expected, ValueId desired,
                      MemOrder order = MemOrder::Relaxed,
                      MemScope scope = MemScope::Gpu);
    ValueId atomicLoad(ValueId ptr, MemOrder order = MemOrder::Relaxed,
                       MemScope scope = MemScope::Gpu);
    void atomicStore(ValueId ptr, ValueId value,
                     MemOrder order = MemOrder::Relaxed,
                     MemScope scope = MemScope::Gpu);
    void fence(MemOrder order, MemScope scope = MemScope::Gpu);

    // --- Arithmetic ----------------------------------------------------
    ValueId iadd(ValueId a, ValueId b);
    ValueId isub(ValueId a, ValueId b);
    ValueId imul(ValueId a, ValueId b);
    ValueId ishl(ValueId a, ValueId b);
    ValueId ishr(ValueId a, ValueId b);
    ValueId iand(ValueId a, ValueId b);
    ValueId ior(ValueId a, ValueId b);
    ValueId ixor(ValueId a, ValueId b);
    ValueId ffma(ValueId a, ValueId b, ValueId c);
    /** Reinterpret the float register bit pattern of @p a as i64. */
    ValueId fbits(ValueId a);
    ValueId icmp(CmpOp cmp, ValueId a, ValueId b);

    // --- Control -------------------------------------------------------
    void br(ValueId cond, BlockId then_bb, BlockId else_bb);
    void jump(BlockId bb);
    void ret();
    void retVal(ValueId v);
    ValueId phi(Type t, std::vector<std::pair<ValueId, BlockId>> incoming);
    void barrier();

    // --- Runtime / intrinsics -----------------------------------------
    ValueId malloc_(ValueId bytes, uint32_t elem_size);
    void free_(ValueId ptr);
    ValueId intToPtr(ValueId v, Type ptr_type);
    ValueId ptrToInt(ValueId v);
    ValueId call(const std::string& callee, Type ret,
                 std::vector<ValueId> args);
    ValueId tid();
    ValueId ctaid();
    ValueId ntid();
    ValueId nctaid();
    ValueId gtid();

    IrFunction& function() { return f_; }

  private:
    ValueId emit(IrInst inst);

    IrFunction& f_;
    BlockId cur_ = 0;
};

} // namespace lmi::ir
