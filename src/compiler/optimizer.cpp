#include "compiler/optimizer.hpp"

#include <unordered_map>

#include "analysis/verify.hpp"

namespace lmi {

using namespace ir;

namespace {

/** True when the instruction has effects beyond producing its value. */
bool
hasSideEffects(const IrInst& inst)
{
    switch (inst.op) {
      case IrOp::Store:
      case IrOp::AtomicRmw: // memory effect even when the result is unused
      case IrOp::AtomicCas:
      case IrOp::AtomicLoad: // ordering effect (acquire edge)
      case IrOp::AtomicStore:
      case IrOp::Fence:
      case IrOp::Br:
      case IrOp::Jump:
      case IrOp::Ret:
      case IrOp::Barrier:
      case IrOp::Malloc: // allocation state is observable
      case IrOp::Free:
      case IrOp::Call:
      case IrOp::ScopeEnd:
        return true;
      default:
        return false;
    }
}

/** Evaluate an integer binop over constants. */
bool
foldInt(IrOp op, int64_t a, int64_t b, int64_t* out)
{
    switch (op) {
      case IrOp::IAdd: *out = a + b; return true;
      case IrOp::ISub: *out = a - b; return true;
      case IrOp::IMul: *out = a * b; return true;
      case IrOp::IMin: *out = std::min(a, b); return true;
      case IrOp::IShl:
        *out = uint64_t(b) >= 64 ? 0 : int64_t(uint64_t(a) << uint64_t(b));
        return true;
      case IrOp::IShr:
        *out = uint64_t(b) >= 64 ? 0 : int64_t(uint64_t(a) >> uint64_t(b));
        return true;
      case IrOp::IAnd: *out = a & b; return true;
      case IrOp::IOr:  *out = a | b; return true;
      case IrOp::IXor: *out = a ^ b; return true;
      default:
        return false;
    }
}

class Optimizer
{
  public:
    explicit Optimizer(IrFunction& f) : f_(f) {}

    OptimizeStats
    run()
    {
        bool changed = true;
        while (changed) {
            changed = false;
            changed |= foldConstants();
            changed |= eliminateDeadCode();
        }
        return stats_;
    }

  private:
    bool
    isConst(ValueId v, int64_t* out) const
    {
        const IrInst& in = f_.inst(v);
        if (in.op != IrOp::ConstInt)
            return false;
        *out = in.imm;
        return true;
    }

    bool
    foldConstants()
    {
        bool changed = false;
        for (BlockId b = 0; b < f_.blocks.size(); ++b) {
            for (ValueId v : f_.blocks[b].insts) {
                IrInst& in = f_.inst(v);
                if (!isIntArith(in.op) || in.ops.size() != 2)
                    continue;
                int64_t lhs = 0, rhs = 0;
                const bool cl = isConst(in.ops[0], &lhs);
                const bool cr = isConst(in.ops[1], &rhs);
                const bool lhs_ptr = f_.inst(in.ops[0]).type.isPtr();

                if (cl && cr) {
                    int64_t result = 0;
                    if (foldInt(in.op, lhs, rhs, &result)) {
                        IrInst folded;
                        folded.op = IrOp::ConstInt;
                        folded.type = in.type;
                        folded.imm = result;
                        in = folded;
                        ++stats_.folded;
                        changed = true;
                    }
                    continue;
                }

                // Algebraic identities that preserve the (possibly
                // pointer-typed) left operand: x+0, x-0, x*1, x|0, x^0,
                // x<<0, x>>0 — and 0+x / 1*x for plain integers.
                ValueId replacement = kNoValue;
                if (cr && rhs == 0 &&
                    (in.op == IrOp::IAdd || in.op == IrOp::ISub ||
                     in.op == IrOp::IOr || in.op == IrOp::IXor ||
                     in.op == IrOp::IShl || in.op == IrOp::IShr))
                    replacement = in.ops[0];
                else if (cr && rhs == 1 && in.op == IrOp::IMul)
                    replacement = in.ops[0];
                else if (cl && lhs == 0 && in.op == IrOp::IAdd && !lhs_ptr)
                    replacement = in.ops[1];
                else if (cl && lhs == 1 && in.op == IrOp::IMul)
                    replacement = in.ops[1];
                else if (cr && rhs == 0 && in.op == IrOp::IMul) {
                    IrInst zero;
                    zero.op = IrOp::ConstInt;
                    zero.type = in.type;
                    zero.imm = 0;
                    in = zero;
                    ++stats_.simplified;
                    changed = true;
                    continue;
                }
                if (replacement != kNoValue) {
                    replaceUses(v, replacement);
                    ++stats_.simplified;
                    changed = true;
                }
            }
        }
        return changed;
    }

    void
    replaceUses(ValueId from, ValueId to)
    {
        for (ValueId v = 1; v < f_.values.size(); ++v)
            for (ValueId& o : f_.inst(v).ops)
                if (o == from)
                    o = to;
    }

    bool
    eliminateDeadCode()
    {
        // Count uses from live (in-block) instructions only: removed
        // instructions linger in the value arena but no longer count.
        std::unordered_map<ValueId, unsigned> uses;
        for (BlockId b = 0; b < f_.blocks.size(); ++b)
            for (ValueId v : f_.blocks[b].insts)
                for (ValueId o : f_.inst(v).ops)
                    ++uses[o];

        bool changed = false;
        for (BlockId b = 0; b < f_.blocks.size(); ++b) {
            auto& insts = f_.blocks[b].insts;
            for (size_t i = 0; i < insts.size();) {
                const ValueId v = insts[i];
                const IrInst& in = f_.inst(v);
                if (!hasSideEffects(in) && uses[v] == 0 &&
                    !in.type.isVoid()) {
                    for (ValueId o : in.ops)
                        --uses[o];
                    insts.erase(insts.begin() + long(i));
                    ++stats_.removed;
                    changed = true;
                } else {
                    ++i;
                }
            }
        }
        return changed;
    }

    IrFunction& f_;
    OptimizeStats stats_;
};

} // namespace

OptimizeStats
optimizeFunction(IrFunction& f)
{
    Optimizer opt(f);
    const OptimizeStats stats = opt.run();
    analysis::verifyOrThrow(f);
    return stats;
}

OptimizeStats
optimizeModule(IrModule& m)
{
    OptimizeStats total;
    for (auto& f : m.functions) {
        const OptimizeStats s = optimizeFunction(f);
        total.folded += s.folded;
        total.simplified += s.simplified;
        total.removed += s.removed;
    }
    return total;
}

} // namespace lmi
