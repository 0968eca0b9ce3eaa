/**
 * @file
 * A small typed, SSA-style kernel IR modeled on LLVM IR (paper §VI).
 *
 * The LMI compiler analysis runs over this IR: it identifies pointer
 * arithmetic (GEPs and integer ops with pointer-typed operands), rejects
 * inttoptr/ptrtoint (paper §XII-B), and conveys hint-bit metadata to the
 * SASS-level code generator. Workload kernels and the security suite's
 * violation kernels are authored against the builder API (builder.hpp).
 *
 * Scope: enough of LLVM's shape to express GPU kernels — typed values,
 * basic blocks with explicit terminators, phis, allocas, GEPs, device
 * malloc/free, thread-geometry intrinsics, and inlinable device
 * functions. No exceptions, no aggregates, no select: GPU kernels in the
 * paper's benchmark suites do not need them.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/isa.hpp" // MemSpace, CmpOp

namespace lmi::ir {

using lmi::AtomicOp;
using lmi::CmpOp;
using lmi::MemOrder;
using lmi::MemScope;
using lmi::MemSpace;

/** Value type. Integers execute as 64-bit; I32 matters for access width. */
struct Type
{
    enum class Kind : uint8_t { Void, I32, I64, F32, Ptr };

    Kind kind = Kind::Void;
    /** Pointee element size in bytes (Ptr only). */
    uint32_t elem_size = 0;
    /** Address space of the pointee (Ptr only). */
    MemSpace space = MemSpace::Global;

    static Type voidTy() { return {Kind::Void, 0, MemSpace::Global}; }
    static Type i32() { return {Kind::I32, 0, MemSpace::Global}; }
    static Type i64() { return {Kind::I64, 0, MemSpace::Global}; }
    static Type f32() { return {Kind::F32, 0, MemSpace::Global}; }
    static Type ptr(uint32_t elem_size, MemSpace space = MemSpace::Global)
    {
        return {Kind::Ptr, elem_size, space};
    }

    bool isPtr() const { return kind == Kind::Ptr; }
    bool isInt() const { return kind == Kind::I32 || kind == Kind::I64; }
    bool isFloat() const { return kind == Kind::F32; }
    bool isVoid() const { return kind == Kind::Void; }
    /** Memory access width for loads/stores of this type. */
    unsigned accessWidth() const;
    std::string toString() const;

    bool operator==(const Type&) const = default;
};

/** IR opcode. */
enum class IrOp : uint8_t {
    // Values
    ConstInt,  ///< imm: integer literal
    ConstFloat,///< fimm: float literal
    Param,     ///< function parameter #imm
    Alloca,    ///< per-thread stack buffer of imm bytes
    SharedRef, ///< named static shared buffer (name)
    DynSharedRef, ///< base of the dynamically sized shared pool
    // Pointer arithmetic
    Gep,       ///< ops[0] + ops[1] * elem_size  (result is ops[0]'s type)
    PtrAddByte,///< ops[0] + ops[1] bytes (raw pointer offset)
    FieldGep,  ///< &ops[0]->field at byte `imm`, field size `aux` bytes
               ///  (sub-object extension: may carry a narrowed extent)
    // Memory
    Load,      ///< *ops[0]
    Store,     ///< *ops[0] = ops[1]
    // Scoped atomics and fences (aop/scope/order fields select the
    // operation, the synchronization scope and the memory ordering)
    AtomicRmw,   ///< old = *ops[0]; *ops[0] = aop(old, ops[1]); yields old
    AtomicCas,   ///< old = *ops[0]; if (old==ops[1]) *ops[0] = ops[2]
    AtomicLoad,  ///< atomic *ops[0]
    AtomicStore, ///< atomic *ops[0] = ops[1]
    Fence,       ///< ordering fence at `scope` with `order`
    // Integer arithmetic
    IAdd, ISub, IMul, IMin, IShl, IShr, IAnd, IOr, IXor,
    // Float arithmetic
    FAdd, FMul, FFma, FRcp,
    // Reinterpret a float register's bit pattern as an integer (a
    // register-level no-op; keeps float->integer folds type-correct)
    FBits,
    // Comparison / control
    ICmp,      ///< cmp(ops[0], ops[1])
    Br,        ///< conditional: ops[0], then tbb/fbb
    Jump,      ///< unconditional: tbb
    Ret,       ///< optional ops[0]
    Phi,       ///< ops[i] from phi_blocks[i]
    Barrier,   ///< __syncthreads()
    // Runtime
    Malloc,    ///< device heap: ops[0] bytes
    Free,      ///< device heap: ops[0]
    // Casts the LMI pass rejects (paper §XII-B)
    IntToPtr, PtrToInt,
    // Device function call (inlined by the compiler): callee + args
    Call,
    // Scope-exit marker for an inlined callee's alloca (drives UAS
    // nullification in the LMI pass)
    ScopeEnd,
    // Thread geometry intrinsics
    Tid, CtaId, NTid, NCtaId, GlobalTid,
};

const char* irOpName(IrOp op);

/** Value/instruction id within a function (0 is invalid). */
using ValueId = uint32_t;
/** Basic block id within a function. */
using BlockId = uint32_t;

inline constexpr ValueId kNoValue = 0;

/** One IR instruction (also the definition of its result value). */
struct IrInst
{
    IrOp op = IrOp::ConstInt;
    Type type;                     ///< result type (Void for stores etc.)
    std::vector<ValueId> ops;      ///< operand value ids
    int64_t imm = 0;               ///< ConstInt / Param index / Alloca size
                                   ///  / FieldGep byte offset
    uint64_t aux = 0;              ///< FieldGep field size in bytes
    double fimm = 0.0;             ///< ConstFloat literal
    CmpOp cmp = CmpOp::EQ;         ///< ICmp predicate
    BlockId tbb = 0, fbb = 0;      ///< branch targets
    std::vector<BlockId> phi_blocks; ///< Phi incoming blocks
    std::string name;              ///< SharedRef buffer / Call callee
    AtomicOp aop = AtomicOp::Add;  ///< AtomicRmw operation
    MemScope scope = MemScope::Cta;///< atomic/fence synchronization scope
    MemOrder order = MemOrder::Relaxed; ///< atomic/fence memory ordering
};

/** A basic block: instruction ids in order; last one is the terminator. */
struct IrBlock
{
    std::string label;
    std::vector<ValueId> insts;
};

/** A function parameter. */
struct IrParam
{
    std::string name;
    Type type;
};

/** One function: kernels and inlinable device functions alike. */
struct IrFunction
{
    std::string name;
    std::vector<IrParam> params;
    Type ret_type = Type::voidTy();
    /** Value arena; index 0 is a sentinel invalid value. */
    std::vector<IrInst> values;
    std::vector<IrBlock> blocks;
    /** Static shared buffers: name -> bytes (kernels only). */
    std::vector<std::pair<std::string, uint64_t>> shared_buffers;

    IrFunction() { values.emplace_back(); }

    const IrInst& inst(ValueId v) const { return values[v]; }
    IrInst& inst(ValueId v) { return values[v]; }

    /** Render textual IR for debugging and the pass-demo example. */
    std::string toString() const;
};

/** A module: one or more kernels plus device functions. */
struct IrModule
{
    std::vector<IrFunction> functions;

    IrFunction* find(const std::string& name);
    const IrFunction* find(const std::string& name) const;
};

/** True when @p op is integer arithmetic (IAdd..IXor). */
bool isIntArith(IrOp op);
/** True when @p op is a block terminator. */
bool isTerminator(IrOp op);
/** True when @p op is an atomic memory access (Rmw/Cas/Load/Store;
 *  Fence excluded: it touches no memory cell). */
bool isAtomicAccess(IrOp op);

} // namespace lmi::ir
